"""Campaign documents: the one JSON format of ``repro run-scenario``
and of fleet requests (``repro serve``).

A document bundles everything a campaign needs — silicon, dark floors,
simulation config, policies with their knobs, supervision — so
experiments are shareable and replayable without writing Python:

.. code-block:: json

    {"name": "dark50-comm-aware", "chips": 5, "population_seed": 42,
     "dark_fractions": [0.5], "config": {"lifetime_years": 10.0},
     "policies": ["vaa", {"type": "hayat", "comm_weight": 2.0}]}

:meth:`Scenario.from_dict` is the only parser and :data:`POLICIES` the
only policy registry.  Unknown keys and mistyped values are refused
with a :class:`ScenarioError` naming the field: a typo'd knob must not
silently run the default experiment.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from dataclasses import dataclass, fields

from repro.baselines import (
    ContiguousManager,
    CoolestFirstManager,
    RandomManager,
    VAAManager,
)
from repro.core import HayatManager
from repro.sim.campaign import DEFAULT_BATCH_SIZE
from repro.sim.config import SimulationConfig
from repro.sim.sweep import SweepResult, sweep_dark_fractions
from repro.variation.population import generate_population

#: The policy names a document (or ``repro simulate --policy``) may use.
POLICIES = {
    "hayat": HayatManager,
    "vaa": VAAManager,
    "contiguous": ContiguousManager,
    "coolest": CoolestFirstManager,
    "random": RandomManager,
}

#: JSON types a policy knob may take, by the type of the constructor
#: parameter's default; knobs with other defaults are not checked here.
_KNOB_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an int"),
    float: ((int, float), "a number"),
}

#: ``SimulationConfig`` fields a document may set at top level.
_SHORTCUTS = {"years": "lifetime_years", "window_s": "window_s", "seed": "seed"}

_KNOWN = {
    "name", "request_id", "policies", "chips", "population_seed",
    "dark_fractions", "config", "requirement_ghz", "baseline",
    "batch_size", "retries", "allow_partial", *_SHORTCUTS,
}


class ScenarioError(ValueError):
    """The campaign document is malformed."""


@dataclass
class Scenario:
    """One validated campaign document (field table: ``docs/api.md``).

    ``policies`` are the policy objects, ``configs`` one
    :class:`~repro.sim.config.SimulationConfig` per distinct dark floor
    in document order, and ``request_id`` defaults to a content hash,
    so identical documents share an identity and a fleet response file.
    """

    request_id: str
    policies: list
    chips: int
    population_seed: int
    configs: list[SimulationConfig]
    requirement_ghz: float = 1.0
    baseline: str | None = None
    batch_size: int = DEFAULT_BATCH_SIZE
    retries: int = 0
    allow_partial: bool = True

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Validate every field a run will use.

        Raises :class:`ScenarioError` naming the bad field, so a fleet
        request that would fail to run is refused by
        :func:`~repro.sim.fleet.submit_request`, and one dropped
        straight into the spool is answered with an error.
        """
        if not isinstance(data, dict):
            raise ScenarioError(
                f"document must be a JSON object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - _KNOWN)
        if unknown:
            raise ScenarioError(
                f"unknown field(s) {unknown}; known fields: {sorted(_KNOWN)}"
            )
        policies = _parse_policies(data.get("policies", ["vaa", "hayat"]))
        names = [policy.name for policy in policies]
        baseline = data.get("baseline")
        if baseline is not None and baseline not in names:
            raise ScenarioError(
                f"baseline {baseline!r} is not among the policies {names}"
            )
        fractions = data.get("dark_fractions", [0.5])
        if not isinstance(fractions, list) or not all(map(_is_number, fractions)):
            raise ScenarioError(
                f"dark_fractions must be a list of numbers, got {fractions!r}"
            )
        fractions = list(dict.fromkeys(float(f) for f in fractions))
        if not fractions:
            raise ScenarioError("a document needs at least one dark fraction")
        overrides = data.get("config", {})
        if not isinstance(overrides, dict):
            raise ScenarioError(f"config must be a JSON object, got {overrides!r}")
        if "dark_fraction_min" in overrides:
            raise ScenarioError(
                "config.dark_fraction_min is not accepted; set the floor(s) "
                "with the top-level dark_fractions list"
            )
        overrides = dict(overrides)
        for shortcut, config_field in _SHORTCUTS.items():
            if shortcut in data:
                if config_field in overrides:
                    raise ScenarioError(
                        f"{shortcut} and config.{config_field} both set "
                        f"the same field; keep one"
                    )
                overrides[config_field] = data[shortcut]
        valid_fields = {f.name for f in fields(SimulationConfig)}
        bad = sorted(set(overrides) - valid_fields)
        if bad:
            raise ScenarioError(
                f"unknown config field(s) {bad}; "
                f"known fields: {sorted(valid_fields)}"
            )
        try:
            configs = [
                SimulationConfig(**overrides, dark_fraction_min=f)
                for f in fractions
            ]
        except (TypeError, ValueError) as error:
            raise ScenarioError(f"invalid config: {error}") from None
        requirement = data.get("requirement_ghz", 1.0)
        if not _is_number(requirement) or not requirement > 0:
            raise ScenarioError(
                f"requirement_ghz must be a positive number, got {requirement!r}"
            )
        allow_partial = data.get("allow_partial", True)
        if not isinstance(allow_partial, bool):
            raise ScenarioError(
                f"allow_partial must be true or false, got {allow_partial!r}"
            )
        request_id = str(data.get("request_id") or request_digest(data))
        if os.path.basename(request_id) != request_id or request_id in (".", ".."):
            raise ScenarioError(
                f"request_id must be a file name, got {request_id!r}"
            )
        return cls(
            request_id=request_id,
            policies=policies,
            chips=_int_field(data, "chips", 5, minimum=1),
            population_seed=_int_field(data, "population_seed", 42, minimum=0),
            configs=configs,
            requirement_ghz=float(requirement),
            baseline=baseline,
            batch_size=_int_field(data, "batch_size", DEFAULT_BATCH_SIZE, minimum=1),
            retries=_int_field(data, "retries", 0, minimum=0),
            allow_partial=allow_partial,
        )

    @property
    def job_count(self) -> int:
        return len(self.policies) * self.chips * len(self.configs)


def _parse_policies(specs) -> list:
    """Policy objects for the document's ``policies`` list.

    Repeated identical entries run once (order preserved); two entries
    of one policy name with different knobs are refused, because
    results are reported per policy name.
    """
    if not isinstance(specs, list):
        raise ScenarioError(f"policies must be a list, got {specs!r}")
    specs = [{"type": s} if isinstance(s, str) else s for s in specs]
    if not all(isinstance(s, dict) and isinstance(s.get("type"), str) for s in specs):
        raise ScenarioError(
            f"each policy must be a name or an object with a 'type' name, "
            f"got {specs!r}"
        )
    specs = list(
        {json.dumps(s, sort_keys=True, default=str): s for s in specs}.values()
    )
    if not specs:
        raise ScenarioError("a document needs at least one policy")
    policies = []
    for spec in specs:
        knobs = {k: v for k, v in spec.items() if k != "type"}
        type_name = spec["type"]
        if type_name not in POLICIES:
            raise ScenarioError(
                f"unknown policy {type_name!r}; choose from {sorted(POLICIES)}"
            )
        _check_knob_types(type_name, knobs)
        try:
            policies.append(POLICIES[type_name](**knobs))
        except (TypeError, ValueError) as error:
            raise ScenarioError(
                f"bad arguments for policy {type_name!r}: {error}"
            ) from None
    names = [policy.name for policy in policies]
    if len(set(names)) != len(names):
        raise ScenarioError(f"duplicate policy names {names}")
    return policies


def _check_knob_types(type_name: str, knobs: dict) -> None:
    """Refuse a knob whose JSON type does not match its default's.

    The constructors coerce what they get: ``bool("false")`` is true,
    so ``{"type": "vaa", "boost": "false"}`` would run with boost on.
    An unknown knob is left to the constructor, which names it.
    """
    if not knobs:
        return
    parameters = inspect.signature(POLICIES[type_name]).parameters
    for name, value in knobs.items():
        parameter = parameters.get(name)
        if parameter is None or type(parameter.default) not in _KNOB_TYPES:
            continue
        types, kind = _KNOB_TYPES[type(parameter.default)]
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise ScenarioError(
                f"policy {type_name!r} knob {name!r} must be {kind}, "
                f"got {value!r}"
            )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int_field(data: dict, name: str, default: int, *, minimum: int) -> int:
    value = data.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(f"{name} must be an int >= {minimum}, got {value!r}")
    return value


def request_digest(data: dict) -> str:
    """Content hash identifying a document (its default ``request_id``)."""
    canonical = json.dumps(
        {k: v for k, v in data.items() if k != "request_id"},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def run_scenario(document: dict, table=None, progress=None) -> SweepResult:
    """Run a campaign document: one campaign per dark floor over the
    document's silicon, with its ``batch_size``, ``retries`` and
    ``allow_partial``."""
    scenario = Scenario.from_dict(document)
    return sweep_dark_fractions(
        scenario.policies,
        [config.dark_fraction_min for config in scenario.configs],
        config=scenario.configs[0],
        population=generate_population(
            scenario.chips, seed=scenario.population_seed
        ),
        table=table,
        progress=progress,
        retries=scenario.retries,
        allow_partial=scenario.allow_partial,
        batch_size=scenario.batch_size,
    )


def load_scenario(path: str) -> dict:
    """Read a campaign document JSON file."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid JSON in {path}: {error}") from None
