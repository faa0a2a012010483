import csv
import json
from fractions import Fraction

import pytest

from ghzdisc.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        err = capsys.readouterr().err
        error_lines = [line for line in err.splitlines() if line.startswith("ghzdisc: error:")]
        assert len(error_lines) == 1
        assert "No such file or directory" in error_lines[0] and str(missing) in error_lines[0]
        assert "Traceback" not in err
        assert not missing.exists()
