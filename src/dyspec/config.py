"""Run-configuration file: key checks and assembly.

The config is a JSON document with four sections (``models``,
``generation``, ``costs``, ``output``).  Unknown sections or keys are
rejected with a message naming the offender, so typos fail loudly instead
of silently running defaults.  A command may declare the keys it reads;
every other key is then rejected too, so a config never looks as if it
set something the run ignores.  The dataclasses that hold the settings
check every value and its type; this module checks key names, that no key
is null, and the two types no dataclass sees.  Temperatures are generation
keys only; the model pair takes them from the validated ``generation``
section.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from .construct import CostParams
from .engine import ConfigError, GenConfig
from .lm import ModelPairSpec

# Section -> its keys.  The model pair's temperatures are generation keys.
_SCHEMA = {
    "models": [f.name for f in dataclasses.fields(ModelPairSpec)
               if f.name not in ("draft_temp", "target_temp")],
    "generation": [f.name for f in dataclasses.fields(GenConfig)],
    "costs": [f.name for f in dataclasses.fields(CostParams)],
    "output": ["dir"],
}
# The JSON types of the keys no dataclass sees.
_JSON_TYPES = {"generation.branching": list, "output.dir": str}


def _check_keys(section: str, data: Dict[str, Any], allowed: Sequence[str]) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object")
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in section {section!r} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
        if value is None or not isinstance(value, _JSON_TYPES.get(f"{section}.{key}", object)):
            raise ConfigError(f"key {section}.{key} has wrong type {type(value).__name__}")


@dataclass
class RunConfig:
    """Validated configuration bundle for one command invocation."""

    models: ModelPairSpec
    generation: GenConfig
    costs: CostParams
    output_dir: Optional[str]

    @classmethod
    def from_dict(
        cls,
        raw: Dict[str, Any],
        overrides: Optional[Dict[str, Any]] = None,
        reads: Optional[Sequence[str]] = None,
        command: str = "this command",
    ) -> "RunConfig":
        """Validate ``raw``; ``overrides`` maps generation keys to flag values.

        ``reads`` declares what ``command`` reads, as section names and
        ``section.key`` names; any other key is rejected, and the
        ``models`` section is required only where a models key is read.
        None reads everything.
        """
        if reads is None:
            reads = tuple(_SCHEMA)
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - set(_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown config sections: {', '.join(sorted(unknown))}")
        reads_models = any(r.split(".")[0] == "models" for r in reads)
        if "models" not in raw and reads_models:
            raise ConfigError("missing required section 'models'")

        for section, allowed in _SCHEMA.items():
            _check_keys(section, raw.get(section, {}), allowed)
        for section in _SCHEMA:
            for key in raw.get(section, {}):
                if section not in reads and f"{section}.{key}" not in reads:
                    raise ConfigError(f"{command} does not read config key {section}.{key}")
        gen_raw = dict(raw.get("generation", {}))
        # Command-line flags override generation keys of the file.
        gen_raw.update((k, v) for k, v in (overrides or {}).items() if v is not None)

        if "budget" not in gen_raw and "threshold" not in gen_raw:
            gen_raw["budget"] = 64
        if "branching" in gen_raw:
            gen_raw["branching"] = tuple(gen_raw["branching"])

        try:
            generation = GenConfig(**gen_raw)
            models = ModelPairSpec(**raw.get("models", {}), draft_temp=generation.draft_temp,
                                   target_temp=generation.target_temp)
            costs = CostParams(**raw.get("costs", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        return cls(models, generation, costs, raw.get("output", {}).get("dir"))

    @classmethod
    def load(
        cls,
        path: Optional[str | Path],
        overrides: Optional[Dict[str, Any]] = None,
        reads: Optional[Sequence[str]] = None,
        command: str = "this command",
    ) -> "RunConfig":
        """:meth:`from_dict` of the JSON file at ``path``; with no path, of
        ``{"models": {}}``, every key at its default."""
        try:
            raw = {"models": {}} if path is None else json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw, overrides, reads, command)
