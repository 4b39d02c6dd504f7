"""Run-configuration file: schema validation and assembly.

The config is a JSON document with four sections (``models``,
``generation``, ``costs``, ``output``).  Unknown sections or keys are
rejected with a message naming the offender, so typos fail loudly instead
of silently running defaults.  A command may declare the keys it reads;
every other key is then rejected too, so a config never looks as if it
set something the run ignores.  Temperatures are generation keys only; the
model pair takes them from the validated ``generation`` section.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from .construct import CostParams
from .engine import ConfigError, GenConfig
from .lm import ModelPairSpec


def _json_types(cls, skip=()) -> Dict[str, Any]:
    """Key -> accepted JSON type(s) for the fields of a config dataclass.

    ``Optional[X]`` accepts X, a float also accepts an int, and a tuple is
    written as a JSON list.
    """
    hints = typing.get_type_hints(cls)
    schema: Dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.name in skip:
            continue
        hint = hints[f.name]
        if typing.get_origin(hint) is typing.Union:
            (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
        hint = typing.get_origin(hint) or hint
        schema[f.name] = {float: (int, float), tuple: list}.get(hint, hint)
    return schema


# Section -> key -> accepted JSON type(s).  The model pair's temperatures
# are generation keys.
_SCHEMA = {
    "models": _json_types(ModelPairSpec, skip=("draft_temp", "target_temp")),
    "generation": _json_types(GenConfig),
    "costs": _json_types(CostParams),
    "output": {"dir": str},
}


def _check_keys(section: str, data: Dict[str, Any], allowed: Dict[str, Any]) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object")
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in section {section!r} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
        expected = allowed[key]
        if not isinstance(value, expected) or isinstance(value, bool):
            raise ConfigError(
                f"key {section}.{key} has wrong type {type(value).__name__}"
            )


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
        models_raw = dict(raw.get("models", {}))
        gen_raw = dict(raw.get("generation", {}))
        costs_raw = dict(raw.get("costs", {}))
        out_raw = dict(raw.get("output", {}))

        # Command-line flags override generation keys of the file.
        gen_raw.update((k, v) for k, v in (overrides or {}).items() if v is not None)

        if "budget" not in gen_raw and "threshold" not in gen_raw:
            gen_raw["budget"] = 64
        if "branching" in gen_raw:
            for i, b in enumerate(gen_raw["branching"]):
                if not isinstance(b, int) or isinstance(b, bool):
                    raise ConfigError(
                        f"key generation.branching[{i}] has wrong type {type(b).__name__}"
                    )
            gen_raw["branching"] = tuple(gen_raw["branching"])

        try:
            generation = GenConfig(**gen_raw)
            models = ModelPairSpec(
                **models_raw,
                draft_temp=generation.draft_temp,
                target_temp=generation.target_temp,
            )
            costs = CostParams(**costs_raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        return cls(
            models=models,
            generation=generation,
            costs=costs,
            output_dir=out_raw.get("dir"),
        )

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
