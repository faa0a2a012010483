"""The package's six value records (`engine.Record`): equality, hashing,
immutability and `repr`, and an import of the CLI that needs no `dataclasses`."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ghzdisc
from ghzdisc.amplitude import ExactAmplitude
from ghzdisc.engine import Basis, ChainState, Record
from ghzdisc.plans import CascadeConstants, PlanParams, constants
from ghzdisc.protocol import ProtocolConfig, Strategy
from reference import PLUS_MINUS

# one record of each class, its fields, and its repr as a frozen dataclass wrote it
RECORDS = {
    "ExactAmplitude(sign=-1, mag_sq=Fraction(1, 3))": (("sign", "mag_sq"), lambda: ExactAmplitude(-1, Fraction(1, 3))),
    "Basis(c0=Fraction(1, 2), c1=Fraction(1, 2))": (("c0", "c1"), lambda: Basis(Fraction(1, 2), Fraction(1, 2))),
    "ChainState(remaining=2, amp0=Fraction(1, 2), amp1=Fraction(-1, 2))":
        (("remaining", "amp0", "amp1"), lambda: ChainState(2, Fraction(1, 2), Fraction(-1, 2))),
    "PlanParams(n=8, x_sq=Fraction(2, 3))": (("n", "x_sq"), lambda: PlanParams(8)),
    "CascadeConstants(params=PlanParams(n=5, x_sq=Fraction(1, 2)))":
        (("params",), lambda: CascadeConstants(PlanParams(5, Fraction(1, 2)))),
    "ProtocolConfig(seed=1, params=PlanParams(n=8, x_sq=Fraction(2, 3)), per_group=30, groups=20, "
    "strategy=<Strategy.SPM: 'spm'>, trials=1, threshold=Fraction(133, 100))":
        (("seed", "params", "per_group", "groups", "strategy", "trials", "threshold"), lambda: ProtocolConfig(seed=1)),
}
DEFAULTS = ("params", "per_group", "groups", "strategy", "trials", "threshold")


@pytest.fixture(params=list(RECORDS), ids=lambda text: text.split("(")[0])
def made(request):
    """The repr, the fields and the builder of one record."""
    return request.param, *RECORDS[request.param]


def test_repr_is_the_dataclass_form(made):
    text, _, make = made
    assert repr(make()) == text


def test_equal_fields_equal_records_and_hashes(made):
    _, _, make = made
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_unequal_fields_unequal_records():
    assert ExactAmplitude(1, Fraction(1, 3)) != ExactAmplitude(-1, Fraction(1, 3))
    assert PlanParams(8) != PlanParams(8, Fraction(1, 2)) and PlanParams(8) != PlanParams(9)
    assert ProtocolConfig(seed=1) != ProtocolConfig(seed=1, trials=2)


def test_constants_are_cached_by_field_values():
    assert constants(PlanParams(8)) is constants(PlanParams(8, Fraction(2, 3)))
    assert constants(PlanParams(8)) == CascadeConstants(PlanParams(8))


def test_record_equals_no_tuple_and_no_other_class():
    class Pair(Record):
        __slots__ = _fields = ("c0", "c1")

    class SubBasis(Basis):
        pass

    half = Fraction(1, 2)
    assert PLUS_MINUS != (half, half) and (half, half) != PLUS_MINUS
    assert PLUS_MINUS != Pair(half, half) and Pair(half, half) != PLUS_MINUS
    assert PLUS_MINUS != SubBasis(half, half) and SubBasis(half, half) != PLUS_MINUS
    assert PlanParams(8) != (8, Fraction(2, 3)) and ExactAmplitude(1, half) != (1, half)


def test_fields_are_read_only(made):
    _, fields, make = made
    record = make()
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_cached_properties_still_cache():
    cascade = CascadeConstants(PlanParams(6))
    assert cascade.steps is cascade.steps and cascade.eta_node == constants(PlanParams(6)).eta_node


def test_protocol_config_defaults_are_read_on_the_class():
    defaults = tuple(getattr(ProtocolConfig, name) for name in DEFAULTS)
    assert defaults == (PlanParams(8), 30, 20, Strategy.SPM, 1, Fraction(133, 100))
    config = ProtocolConfig(seed=3)
    assert all(getattr(config, name) == getattr(ProtocolConfig, name) for name in DEFAULTS)


def test_cli_import_loads_no_dataclasses():
    # a record is a plain class: `dataclasses` would also import `inspect`
    # (and `ast`, `dis`, `tokenize`) before any command runs
    env = dict(os.environ, PYTHONPATH=str(Path(ghzdisc.__file__).parents[1]))
    code = "import sys; before = set(sys.modules); import ghzdisc.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    added = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    ).stdout.split()
    assert "ghzdisc.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)
