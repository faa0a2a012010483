import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghzdisc
import reference
from ghzdisc import cli, protocol
from ghzdisc.amplitude import fraction_json
from ghzdisc.cli import _CSV_HEADER, _csv_row, main
from ghzdisc.plans import PlanParams, enumerate_branches, outcome_classes
from ghzdisc.oracle import checkpoint_report, no_signaling_suite
from ghzdisc.protocol import PLANS, ProtocolConfig, Strategy, discriminate, group_vote, law, run_protocol


def simulate_records(config, trials):
    """The `simulate` per-trial records of each trial's (ones per group, eta
    hits): per group its zeros, ones, ratio ones / zeros (None when zeros is
    0) and vote; the eta hits; and the majority: spm needs more than half
    the groups' votes.  Votes are `Strategy` values."""
    records = []
    for ones_per_group, eta_hits in trials:
        votes = [group_vote(config, ones) for ones in ones_per_group]
        per_group = [
            {"zeros": config.per_group - ones, "ones": ones,
             "ratio": ones / (config.per_group - ones) if ones < config.per_group else None,
             "decision": "spm" if vote else "cpm"}
            for ones, vote in zip(ones_per_group, votes)
        ]
        overall = "spm" if 2 * sum(votes) > len(votes) else "cpm"
        records.append({"per_group": per_group, "eta_hits": eta_hits, "overall_decision": overall})
    return records


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_traced(argv, capsys):
    """`run`, and the peak of memory traced by `tracemalloc` meanwhile."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, capsys.readouterr().out, peak


class TestEnumerate:
    def test_json_table(self, tmp_path, capsys):
        out = tmp_path / "branches.json"
        code, stdout, _ = run(
            ["enumerate", "--strategy", "spm", "--qubits", "8", "--out", str(out)], capsys
        )
        assert code == 0
        assert "branches: 128" in stdout
        assert "1:64 2:32 3:16 4:8 5:4 6:2 7:1 8:1" in stdout
        rows = json.loads(out.read_text())
        assert len(rows) == 128
        first = rows[0]
        assert set(first) == {"outcomes", "probability", "class", "level", "bob_amp0", "bob_amp1"}
        # exact fields are authoritative and parse back to rationals
        assert Fraction(int(first["probability"]["num"]), int(first["probability"]["den"])) > 0

    def test_csv_table(self, tmp_path, capsys):
        out = tmp_path / "branches.csv"
        code, _, _ = run(
            ["enumerate", "--strategy", "cpm", "--format", "csv", "--out", str(out)], capsys
        )
        assert code == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 129
        assert rows[0][0] == "outcomes"
        assert all(row[1] == "1" and row[2] == "128" for row in rows[1:])

    def test_stdout_default(self, capsys):
        code, stdout, _ = run(["enumerate", "--strategy", "spm", "--qubits", "3"], capsys)
        assert code == 0
        assert "branches: 4" in stdout

    def test_cascade_needs_two_sender_qubits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--strategy", "spm", "--qubits", "2"])
        assert exc.value.code != 0

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GHZDISC_OUT_DIR", str(tmp_path))
        code, _, _ = run(
            ["enumerate", "--strategy", "spm", "--out", "table.json"], capsys
        )
        assert code == 0
        assert (tmp_path / "table.json").exists()

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
    def test_digit_limit_lifted_and_restored(self, tmp_path, capsys):
        # spm n=13 amplitudes have more than 640 decimal digits
        argv = ["enumerate", "--strategy", "spm", "--qubits", "13", "--out"]
        limited, lifted = tmp_path / "limited.json", tmp_path / "lifted.json"
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            assert main(argv + [str(limited)]) == 0
            assert sys.get_int_max_str_digits() == 640
            sys.set_int_max_str_digits(0)
            assert main(argv + [str(lifted)]) == 0
        finally:
            sys.set_int_max_str_digits(saved)
        assert limited.read_bytes() == lifted.read_bytes()

    def test_table_written_in_bounded_memory(self, tmp_path, capsys):
        # a 3.4 MB table; joining a whole class at once would peak above 2.6 MB
        out = tmp_path / "t.json"
        code, _, peak = run_traced(["enumerate", "--strategy", "spm", "--qubits", "14", "--out", str(out)], capsys)
        assert code == 0
        assert out.stat().st_size > 3 * 2**20
        assert peak < 2**20

    def test_closed_stdout_pipe(self):
        env = dict(os.environ, PYTHONPATH=str(Path(ghzdisc.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ghzdisc.cli", "enumerate", "--strategy", "spm", "--qubits", "12"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"branches: 2048\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert "Traceback" not in err and "Exception ignored" not in err


def _assert_rows_rendered(strategy, n, x_sq, tmp_path):
    """Both formats of `enumerate` equal the rows of `enumerate_branches`,
    each rendered on its own from `Fraction`s by `reference._branch_row`, and by `_csv_row`."""
    params = PlanParams(n, Fraction(x_sq))
    rows = [
        reference._branch_row(r.head, r.probability, r.state, r.leaf_classes[0], r.level)
        for r in enumerate_branches(PLANS[Strategy(strategy)](params), params)
    ]
    argv = ["enumerate", "--strategy", strategy, "--qubits", str(n), "--x-sq", x_sq]
    assert main([*argv, "--out", str(tmp_path / "t.json")]) == 0
    assert (tmp_path / "t.json").read_text() == json.dumps(rows, indent=2) + "\n"
    assert main([*argv, "--format", "csv", "--out", str(tmp_path / "t.csv")]) == 0
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    writer.writerows(map(_csv_row, rows))
    assert (tmp_path / "t.csv").read_text() == expected.getvalue()


# rows are rendered once per outcome class and written in runs; every row
# must still equal its own `Fraction` rendering from `reference._branch_row` and `_csv_row`
@pytest.mark.parametrize("n", range(3, 11))
def test_rows_rendered_per_class(n, tmp_path):
    for x_sq in ("2/3", "1/2", "3/7", "9/10"):
        for strategy in ("cpm", "spm"):
            _assert_rows_rendered(strategy, n, x_sq, tmp_path)


# at n = run bits + 3 both strategies have a class of depth > run bits, which
# is written in several runs; 0 makes every row its own run
@pytest.mark.parametrize("run_bits", [0, 2, cli._RUN_BITS])
def test_runs_split_deep_classes(run_bits, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_RUN_BITS", run_bits)
    params = PlanParams(run_bits + 3)
    for strategy in ("cpm", "spm"):
        classes = outcome_classes(PLANS[Strategy(strategy)](params), params)
        assert max(c.depth for c in classes) > run_bits
        _assert_rows_rendered(strategy, params.n, "3/7", tmp_path)


# a num and a den that share a power of two and an odd factor, each up to
# about 2400 bits: a zero or negative num, and powers of two on either side
_POWER_OF_TWO = st.integers(0, 2400).map(lambda k: 1 << k)
_ODD = st.integers(0, 2**2400).map(lambda n: 2 * n + 1)
_SHARED = st.one_of(st.just(1), _ODD, st.integers(0, 40).map(lambda k: 3**k * 5))


@settings(max_examples=300, deadline=None)
@example(0, 1, 1)
@example(0, 3**1300, 1 << 2100)
@example(-(1 << 2100), 1 << 2200, 1)
@example(1 << 3000, 3 << 10, 1)
@example(-(3**1300), 3**1300 << 5, 7)
@given(st.integers(-(2**2400), 2**2400) | _POWER_OF_TWO | _POWER_OF_TWO.map(lambda n: -n),
       st.integers(1, 2**2400) | _POWER_OF_TWO | _ODD, _SHARED)
def test_lowest_terms_match_fraction(num, den, shared):
    num, den = num * shared, den * shared
    q = Fraction(num, den)
    assert cli._lowest(num, den) == (q.numerator, q.denominator)


class TestSimulate:
    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--strategy", "spm"])
        assert exc.value.code != 0

    def test_json_schema(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code, _, _ = run(
            ["simulate", "--seed", "7", "--trials", "1", "--per-group", "30",
             "--groups", "20", "--strategy", "spm", "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "per_trial", "summary"}
        assert len(payload["per_trial"]) == 1
        trial = payload["per_trial"][0]
        assert set(trial) == {"per_group", "eta_hits", "overall_decision"}
        assert len(trial["per_group"]) == 20
        assert set(payload["summary"]) == {"empirical_p1", "oracle_p1", "w_values"}
        assert payload["summary"]["oracle_p1"]["num"] == "1"
        assert payload["summary"]["oracle_p1"]["den"] == "2"

    def test_csv_export(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        csv_out = tmp_path / "groups.csv"
        code, _, _ = run(
            ["simulate", "--seed", "7", "--groups", "3", "--per-group", "5",
             "--out", str(out), "--csv", str(csv_out)],
            capsys,
        )
        assert code == 0
        with open(csv_out) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 4

    def test_exact_threshold(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code, _, _ = run(
            ["simulate", "--seed", "7", "--groups", "2", "--per-group", "5",
             "--threshold", "4/3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["threshold"] == {"num": "4", "den": "3"}


@settings(max_examples=100, deadline=None)
@given(
    per_group=st.integers(min_value=1, max_value=40),
    groups=st.integers(min_value=1, max_value=6),
    trials=st.integers(min_value=1, max_value=3),
    threshold=st.fractions(min_value=0, max_value=5, max_denominator=1000),
    strategy=st.sampled_from(list(Strategy)),
    data=st.data(),
)
def test_simulate_json_is_json_dumps(per_group, groups, trials, threshold, strategy, data):
    # the per-trial text spliced from drawn counts equals json.dumps of the
    # payload holding their records; a count of per_group ones has zeros = 0
    # and a null ratio
    config = ProtocolConfig(seed=1, per_group=per_group, groups=groups, trials=trials,
                            threshold=threshold, strategy=strategy)
    counts = st.lists(st.integers(min_value=0, max_value=per_group), min_size=groups, max_size=groups)
    drawn = [(data.draw(counts), data.draw(st.integers(0, groups * per_group))) for _ in range(trials)]
    payload = {
        "config": cli._config_json(config),
        "per_trial": simulate_records(config, drawn),
        "summary": {
            "empirical_p1": data.draw(st.floats(min_value=0, max_value=1)),
            "oracle_p1": fraction_json(1, 2),
            "w_values": {"1": 1.655, "2": 3.43},
        },
    }
    text = cli._simulate_json({**payload, "per_trial": None}, drawn, cli._groups(config))
    assert text == json.dumps(payload, indent=2)


def test_simulate_group_record_fields():
    # a group's zeros, ones, ratio ones / zeros (null when zeros is 0) and vote,
    # and the trial's majority, where a tie goes to cpm
    config = ProtocolConfig(seed=1, per_group=7, groups=4, threshold=Fraction(4, 3))
    text = cli._simulate_json({"per_trial": None}, [([4, 7, 3, 0], 5)], cli._groups(config))
    assert json.loads(text)["per_trial"] == [{
        "per_group": [
            {"zeros": 3, "ones": 4, "ratio": 4 / 3, "decision": "spm"},
            {"zeros": 0, "ones": 7, "ratio": None, "decision": "spm"},
            {"zeros": 4, "ones": 3, "ratio": 3 / 4, "decision": "cpm"},
            {"zeros": 7, "ones": 0, "ratio": 0.0, "decision": "cpm"},
        ],
        "eta_hits": 5,
        "overall_decision": "cpm",
    }]


@pytest.mark.parametrize("with_csv", [False, True])
def test_simulate_votes_each_count_once(with_csv, tmp_path, monkeypatch):
    # a group's vote and record depend only on its count of ones: the JSON,
    # the CSV and the majority read one record per distinct count of the run
    voted = []
    monkeypatch.setattr(cli, "group_vote", lambda config, ones: voted.append(ones) or group_vote(config, ones))
    out, csv_out = tmp_path / "run.json", tmp_path / "groups.csv"
    assert main(["simulate", "--seed", "6", "--per-group", "12", "--groups", "20", "--trials", "5",
                 "--out", str(out), *(["--csv", str(csv_out)] if with_csv else [])]) == 0
    counts = [g["ones"] for trial in json.loads(out.read_text())["per_trial"] for g in trial["per_group"]]
    assert sorted(voted) == sorted(set(counts)) and len(voted) < len(counts)


@pytest.mark.parametrize("strategy", ["cpm", "spm", "random"])
def test_simulate_output_is_json_dumps(strategy, tmp_path):
    # one state per group leaves groups with zeros = 0, whose ratio is null
    for per_group in (1, 7, 40):
        out = tmp_path / "run.json"
        assert main(["simulate", "--seed", "5", "--strategy", strategy, "--trials", "2", "--groups", "12",
                     "--per-group", str(per_group), "--out", str(out)]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert per_group > 1 or '"ratio": null' in text


class TestDiscriminate:
    def test_runs(self, tmp_path, capsys):
        out = tmp_path / "disc.json"
        code, _, stderr = run(
            ["discriminate", "--seed", "5", "--trials", "6", "--per-group", "10",
             "--groups", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["trials"]) == 6
        assert set(payload["confusion"]) == {"cpm", "spm"}
        assert "accuracy" in stderr


class TestMarginal:
    @pytest.mark.parametrize("strategy", ["cpm", "spm"])
    def test_exact_half(self, strategy, capsys):
        code, stdout, _ = run(["marginal", "--strategy", strategy], capsys)
        assert code == 0
        assert stdout == "p0 = 1/2\np1 = 1/2\n"

    def test_closed_stdout_pipe_short_output(self):
        # the whole output fits the stdout buffer, so the pipe error only
        # shows when that buffer is flushed
        env = dict(os.environ, PYTHONPATH=str(Path(ghzdisc.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ghzdisc.cli", "marginal", "--strategy", "cpm", "--qubits", "4"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        err = proc.stderr.decode()
        assert "Traceback" not in err and "Exception ignored" not in err


# 2^17 leaves at n = 18; the samplers and the checkpoint read its 18 outcome
# classes, where one record per leaf would take tens of MiB
class TestLargeChain:
    def test_simulate_builds_no_records(self, capsys):
        argv = ["simulate", "--qubits", "18", "--seed", "1", "--trials", "1", "--groups", "2",
                "--per-group", "10"]
        code, stdout, peak = run_traced(argv, capsys)
        assert code == 0
        p1 = json.loads(stdout)["summary"]["oracle_p1"]
        assert Fraction(int(p1["num"]), int(p1["den"])) == Fraction(1, 2)
        assert peak < 4 * 2**20

    def test_verify_builds_no_records(self, capsys):
        code, stdout, peak = run_traced(["verify", "--qubits", "18", "--random-plans", "0"], capsys)
        assert code == 0
        assert "FAIL" not in stdout
        assert peak < 4 * 2**20


class TestVerify:
    def test_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            ["verify", "--random-plans", "2", "--json", str(out)], capsys
        )
        assert code == 0
        assert "FAIL" not in stdout
        report = json.loads(out.read_text())
        assert all(entry["status"] in ("PASS", "INFO") for entry in report)

    # --seed itself must lie in [0, 2**64): just below it, and at 2**64; and
    # it is checked even when no random plan would use it
    @pytest.mark.parametrize("seed,extra", [
        pytest.param("-1", [], id="-1"),
        pytest.param("18446744073709551616", [], id="18446744073709551616"),
        pytest.param("-1", ["--qubits", "3", "--random-plans", "0"], id="-1-no-random-plans"),
    ])
    def test_seed_out_of_range(self, seed, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", seed, *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any check runs
        err = captured.err
        assert "ghzdisc: error: random plan seed must be an unsigned 64-bit integer" in err
        assert f"got seed {seed}," in err  # the flag's value, not a derived plan seed
        assert "Traceback" not in err

    def test_negative_random_plans(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--qubits", "4", "--random-plans", "-3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "random plans per chain length must be nonnegative, got -3" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""  # rejected before any check runs


# a sampling command checks its seed with its config, before any sampler is built
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "-1", "--qubits", "21"],
        ["discriminate", "--seed", "18446744073709551616"],
    ],
    ids=["simulate", "discriminate"],
)
def test_sampling_seed_out_of_range_fails_fast(argv, monkeypatch, capsys):
    def unreachable(strategy, params):
        raise AssertionError("a law built for an invalid seed")

    monkeypatch.setattr(cli, "law", unreachable)
    monkeypatch.setattr(protocol, "law", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert (
        f"ghzdisc: error: seed must be an unsigned 64-bit integer, got seed {argv[2]}, "
        "not in [0, 2**64)\n"
    ) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# `main` builds the chain before any subcommand runs, so a bad chain is the one
# usage error even where --seed or --random-plans is bad too
@pytest.mark.parametrize("chain,message", [
    (["--qubits", "2"], "the cascade needs at least 2 sender qubits (n >= 3), got n=2"),
    (["--x-sq", "1"], "x_sq must lie strictly between 0 and 1, got 1"),
    (["--x-sq", "0"], "x_sq must lie strictly between 0 and 1, got 0"),
    # 5001 digits, past the default int-to-str limit, every one quoted
    pytest.param(["--x-sq", "1e5000"], "x_sq must lie strictly between 0 and 1, got 1" + "0" * 5000,
                 id="x-sq-of-5001-digits"),
])
@pytest.mark.parametrize("argv", [
    pytest.param(["enumerate", "--strategy", "spm", "--out", "out.json"], id="enumerate"),
    pytest.param(["marginal", "--strategy", "cpm"], id="marginal"),
    pytest.param(["verify", "--json", "out.json"], id="verify"),
    pytest.param(["simulate", "--seed", "1", "--out", "out.json", "--csv", "out.csv"], id="simulate"),
    pytest.param(["discriminate", "--seed", "1", "--out", "out.json"], id="discriminate"),
    pytest.param(["verify", "--seed", "-1", "--random-plans", "-3", "--json", "out.json"],
                 id="verify-bad-seed"),
    pytest.param(["simulate", "--seed", "-1", "--out", "out.json"], id="simulate-bad-seed"),
])
def test_bad_chain_is_usage_error(argv, chain, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + chain)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("ghzdisc: error:") == 1
    assert captured.err.endswith(f"ghzdisc: error: {message}\n")
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_commands_never_change_the_digit_limit(tmp_path, capsys, monkeypatch):
    # spm n=16 ints have up to 9865 digits; each command prints every one of them
    # at the lowest limit, and the limit is neither lifted nor restored on the way
    commands = [
        ["enumerate", "--strategy", "spm", "--qubits", "16", "--format", "csv", "--out"],
        ["enumerate", "--strategy", "spm", "--qubits", "16", "--out"],
        ["verify", "--qubits", "16", "--random-plans", "0", "--json"],
        ["marginal", "--strategy", "spm", "--qubits", "16"],
        ["simulate", "--seed", "1", "--out"],
    ]

    def outputs(tag):
        results = []
        for i, argv in enumerate(commands):
            out = tmp_path / f"{tag}{i}"
            code = main(argv + [str(out)] if argv[-1].startswith("--") else argv)
            results.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
        return results

    def refuse(limit):
        raise AssertionError(f"the int-to-str digit limit was set to {limit}")

    set_limit, saved = sys.set_int_max_str_digits, sys.get_int_max_str_digits()
    try:
        set_limit(0)
        lifted = outputs("lifted")
        set_limit(640)
        with monkeypatch.context() as patch:
            patch.setattr(sys, "set_int_max_str_digits", refuse)
            limited = outputs("limited")
        assert sys.get_int_max_str_digits() == 640
    finally:
        set_limit(saved)
    assert [code for code, _, _ in limited] == [0] * len(commands)
    assert limited == lifted


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path, capsys):
        pairs = []
        for tag in ("a", "b"):
            enum_out = tmp_path / f"enum_{tag}.json"
            sim_out = tmp_path / f"sim_{tag}.json"
            main(["enumerate", "--strategy", "spm", "--out", str(enum_out)])
            main(["simulate", "--seed", "99", "--groups", "4", "--per-group", "10",
                  "--out", str(sim_out)])
            capsys.readouterr()
            pairs.append((enum_out.read_bytes(), sim_out.read_bytes()))
        assert pairs[0] == pairs[1]



class TestPayloadIsLibraryRecord:
    """Each command writes the library's own records, with no renaming;
    `simulate` writes the records of the library's counts."""

    def test_simulate_per_trial(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["simulate", "--strategy", "random", "--qubits", "6", "--trials", "2",
                     "--seed", "7", "--groups", "3", "--per-group", "10", "--out", str(out)]) == 0
        config = ProtocolConfig(seed=7, params=PlanParams(6), per_group=10, groups=3,
                                strategy=Strategy.RANDOM_PER_STATE, trials=2)
        expected = simulate_records(config, run_protocol(config, law(config.strategy, config.params)))
        assert json.loads(out.read_text())["per_trial"] == expected

    def test_discriminate_report(self, tmp_path, capsys):
        out = tmp_path / "disc.json"
        assert main(["discriminate", "--seed", "5", "--trials", "6", "--per-group", "10",
                     "--groups", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        del payload["config"]
        assert payload == discriminate(ProtocolConfig(seed=5, per_group=10, groups=4, trials=6))

    def test_verify_checks(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--qubits", "5", "--random-plans", "1", "--seed", "3",
                     "--json", str(out)]) == 0
        expected = checkpoint_report(PlanParams(5)) + no_signaling_suite(plans_per_n=1, seed=3)
        assert json.loads(out.read_text()) == expected


# an empty path names no file: it is rejected before any output is attempted
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--strategy", "cpm", "--qubits", "3", "--out", ""],
        ["simulate", "--seed", "7", "--groups", "2", "--per-group", "3", "--out", ""],
        ["simulate", "--seed", "7", "--groups", "2", "--per-group", "3", "--csv", ""],
        ["discriminate", "--seed", "7", "--groups", "2", "--per-group", "3", "--out", ""],
        ["verify", "--qubits", "3", "--random-plans", "0", "--json", ""],
    ],
    ids=["enumerate-out", "simulate-out", "simulate-csv", "discriminate-out", "verify-json"],
)
def test_empty_output_path_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {argv[-2]}: an output path must not be empty" in captured.err
    assert captured.out == ""  # rejected while parsing, before any work
    assert os.listdir(tmp_path) == []
    assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path.parent))


class TestOutputErrors:
    """An output path that cannot be written is a usage error (exit 2,
    one message line), not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--strategy", "cpm", "--qubits", "4", "--out", "{missing}"],
            ["simulate", "--seed", "7", "--groups", "2", "--per-group", "3",
             "--out", "{ok}", "--csv", "{missing}"],
            ["verify", "--random-plans", "1", "--json", "{missing}"],
        ],
        ids=["out", "csv", "json"],
    )
    def test_missing_directory(self, argv, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "x.out"
        ok = tmp_path / "ok.json"
        argv = [a.format(missing=missing, ok=ok) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        error_lines = [line for line in err.splitlines() if line.startswith("ghzdisc: error:")]
        assert len(error_lines) == 1
        assert "No such file or directory" in error_lines[0] and str(missing) in error_lines[0]
        assert "Traceback" not in err
        # every output is opened before any work: nothing is printed and no other output is written
        assert out == ""
        assert not missing.exists() and not ok.exists()
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("form", ["same-path", "out-dir", "symlink"])
    def test_one_file_for_json_and_csv(self, form, tmp_path, capsys, monkeypatch):
        # both outputs would replace one file from one temporary path, so the pair is refused
        target = tmp_path / "run.out"
        out, csv_out = str(target), str(target)
        if form == "out-dir":
            monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
            out = "run.out"
        elif form == "symlink":
            (tmp_path / "link.out").symlink_to(target)
            out = str(tmp_path / "link.out")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seed", "7", "--groups", "2", "--per-group", "3", "--out", out, "--csv", csv_out])
        assert exc.value.code == 2
        out_text, err = capsys.readouterr()
        error_lines = [line for line in err.splitlines() if line.startswith("ghzdisc: error:")]
        assert error_lines == [f"ghzdisc: error: --out and --csv name the same file: {str(target)!r}"]
        assert "Traceback" not in err and out_text == ""
        assert not target.exists()
        assert sorted(os.listdir(tmp_path)) == (["link.out"] if form == "symlink" else [])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_write_keeps_previous_file(self, fmt, tmp_path, capsys, monkeypatch):
        out = tmp_path / "table.out"
        out.write_text("previous\n")
        real_rows = cli._parity_rows
        classes = []

        def failing_rows(c):
            classes.append(c)
            if len(classes) == 3:
                raise RuntimeError("row failed")
            return real_rows(c)

        monkeypatch.setattr(cli, "_parity_rows", failing_rows)
        with pytest.raises(RuntimeError):
            main(["enumerate", "--strategy", "spm", "--qubits", "5", "--format", fmt, "--out", str(out)])
        assert out.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["table.out"]


class TestOutputTargets:
    ENUMERATE = ["enumerate", "--strategy", "spm", "--qubits", "5", "--out"]

    def test_device_written_through(self, capsys):
        assert main(self.ENUMERATE + [os.devnull]) == 0
        assert not os.path.isfile(os.devnull)

    @staticmethod
    def _assert_stdout_target(argv, tmp_path, capsys):
        """`argv + ["/dev/stdout"]` run with stdout redirected to a file
        writes the census lines and then the table `argv` writes to a file."""
        expected = tmp_path / "expected"
        assert main(argv + [str(expected)]) == 0
        census = capsys.readouterr().out
        redirected = tmp_path / "redirected.txt"
        env = dict(os.environ, PYTHONPATH=str(Path(ghzdisc.__file__).parents[1]))
        with open(redirected, "w") as handle:
            subprocess.run(
                [sys.executable, "-m", "ghzdisc.cli", *argv, "/dev/stdout"],
                stdout=handle, env=env, check=True, timeout=120,
            )
        assert redirected.read_text() == census + expected.read_text()

    def test_stdout_target_redirected_to_file(self, tmp_path, capsys):
        self._assert_stdout_target(self.ENUMERATE, tmp_path, capsys)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_target_split_runs(self, fmt, tmp_path, capsys):
        # n = 10: the deepest classes are written in several runs
        argv = ["enumerate", "--strategy", "cpm", "--qubits", "10", "--format", fmt, "--out"]
        self._assert_stdout_target(argv, tmp_path, capsys)

    def test_symlink_target_replaced(self, tmp_path, capsys):
        expected = tmp_path / "expected.json"
        assert main(self.ENUMERATE + [str(expected)]) == 0
        data = tmp_path / "data"
        data.mkdir()
        target = data / "table.json"
        target.write_text("previous\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(self.ENUMERATE + [str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == expected.read_bytes()
        assert os.listdir(data) == ["table.json"]


FLAG_SURFACE_SHA256 = "612b2f691cea5bbbb28ba47e6ae2f35039a483ccf9891718db37b1cda6716a3f"


def _flag_surface():
    """Every subcommand's actions as canonical JSON: option strings, dest,
    default, choices, required, type name and help.  The structure, not
    the `--help` text, whose layout differs across Python versions."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return json.dumps({
        name: [
            {
                "options": a.option_strings,
                "dest": a.dest,
                "default": str(a.default),
                "choices": a.choices,
                "required": a.required,
                "type": getattr(a.type, "__name__", None),
                "help": a.help,
            }
            for a in parser._actions
        ]
        for name, parser in sub.choices.items()
    }, sort_keys=True)


def test_flag_surface_pinned():
    # a new, renamed or re-defaulted flag moves the digest: update it on purpose
    surface = _flag_surface()
    assert hashlib.sha256(surface.encode()).hexdigest() == FLAG_SURFACE_SHA256, surface

