"""Each configuration class checks its fields against one rule table, so a
field added with neither a rule nor a written-out check fails here."""

import dataclasses
import re
from pathlib import Path

import pytest

from hpmropt.constraints import SPEC_RULES, ConstraintSpec
from hpmropt.economics import COST_RULES, ECON_RULES, SCENARIO_KEYS, CostScenario, EconParams
from hpmropt.environment import PROXY_RULES, ProxyModelConfig
from hpmropt.errors import ConfigError, ContractError, EvaluationError
from hpmropt.nsga2 import GA_RULES, GaConfig
from hpmropt.pearl import PEARL_RULES, PearlConfig
from hpmropt.runio import RUN_RULES, RunConfig

# the fields each class checks in written-out code instead of a rule
CROSS_FIELD = {
    # a number, or a pair with lo < hi for a range; never zero
    ConstraintSpec: {"limit"},
    # built, and checked, by EconParams, constraints_from_config and
    # ProxyModelConfig.from_config
    CostScenario: {"econ", "constraints", "proxy"},
    # from_config checks each entry of anchors and betas; nominal_z is not
    # read from a scenario file
    ProxyModelConfig: {"anchors", "betas", "nominal_z"},
    # reject_unknown, then PearlConfig or GaConfig
    RunConfig: {"pearl", "nsga2"},
}


@pytest.mark.parametrize("cls, rules", [
    (PearlConfig, PEARL_RULES), (GaConfig, GA_RULES), (EconParams, ECON_RULES),
    (CostScenario, COST_RULES), (ConstraintSpec, SPEC_RULES),
    (ProxyModelConfig, PROXY_RULES), (RunConfig, RUN_RULES),
])
def test_every_config_field_has_a_rule(cls, rules):
    fields = {f.name for f in dataclasses.fields(cls)}
    written_out = CROSS_FIELD.get(cls, set())
    assert fields - written_out == set(rules)
    assert not written_out & set(rules)


@pytest.mark.parametrize("build, error, message", [
    (lambda: CostScenario("s", 0.0, 0.0, 0.0, 0.0, 0.0, -1.0), ConfigError,
     "s: annual_om must be a finite non-negative number, got -1.0"),
    (lambda: ConstraintSpec("c", "sdm", "at_most", float("inf")), ContractError,
     "c: limit must be a finite number, got inf"),
    (lambda: ProxyModelConfig(heat_flux_k=0), EvaluationError,
     "heat_flux_k must be a finite positive number, got 0"),
    (lambda: PearlConfig(seeds=[1, -1], agents=2, total_steps=8), ConfigError,
     "seeds must be a list of any number of values, each an integer of at least 0 "
     "(or null), got [1, -1]"),
])
def test_message_names_the_key_the_rule_and_the_value(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def _readme_key_tables() -> dict:
    """Each table of README's "Input rules": its header's first cell, and
    the backquoted keys in the first cell of its rows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Input rules", 1)[1].split("\n## ", 1)[0]
    tables, header = {}, None
    for line in section.splitlines():
        if not line.startswith("|"):
            header = None
        elif header is None:
            header = line.split("|")[1].strip()
            tables[header] = set()
        elif not line.startswith("| ---"):
            tables[header].update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return tables


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("header, keys", [
    # out_dir comes from --out, which overrides a config's
    ("key", _field_names(RunConfig) - {"out_dir"}),
    ("`pearl` key", _field_names(PearlConfig)),
    ("`nsga2` key", _field_names(GaConfig)),
    ("`econ` key", _field_names(EconParams)),
    # the scenario file's own keys (name, description, econ, ...) sit
    # beside its costs section
    ("`costs` key", _field_names(CostScenario) - set(SCENARIO_KEYS)),
])
def test_readme_key_tables_name_every_field(header, keys):
    assert _readme_key_tables()[header] == keys
