"""Tests for the command-line interface: JSON reports and exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weightcomb import glblocks
from weightcomb.cli import _emit, _report, main
from weightcomb.glblocks import blocks, verify_counting
from weightcomb.partitions import d_core, d_quotient


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


REPO = Path(__file__).resolve().parents[1]


def subprocess_env():
    """The environment for running ``python -m weightcomb`` from this checkout."""
    src = str(REPO / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}


GL_BLOCKS_4 = ["gl", "blocks", "--n", "4", "--q", "9", "--eps", "+", "--ell", "5"]


# ---------------------------------------------------------------------------
# Report envelope.


def test_report_envelope(capsys):
    code, report = run_json(capsys, "partition", "hooks", "3")
    assert code == 0
    assert report["schema"] == 1
    assert report["tool"].startswith("weightcomb ")
    assert report["command"] == ["partition", "hooks", "3"]
    assert report["pass"] is True


def test_byte_identical_reruns(capsys):
    argv = ["gl", "verify", "--n", "2", "--q", "4", "--eps", "+", "--ell", "3"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# Cheap ops whose exit code, stdout size and sha256 the benchmark pins in
# bench/reference.json; the report echoes argv, so they run from the root.
PINNED_OPS = {
    "campaign": ["campaign"],
    "smoke_campaign": ["campaign", "bench/smoke_campaign.json"],
    "gl_blocks_2_4_plus_3": [
        "gl", "blocks", "--n", "2", "--q", "4", "--eps", "+", "--ell", "3"
    ],
    "gl_blocks_3_5_minus_3": [
        "gl", "blocks", "--n", "3", "--q", "5", "--eps", "-", "--ell", "3"
    ],
    "young_sym_6_2": ["young", "verify", "--kind", "sym", "--n", "6", "--ell", "2"],
}


@pytest.mark.parametrize("argv", PINNED_OPS.values(), ids=PINNED_OPS.keys())
def test_reports_match_benchmark_reference(argv):
    reference = json.loads((REPO / "bench" / "reference.json").read_text())
    pinned = reference["weightcomb " + " ".join(argv)]
    run = subprocess.run(
        [sys.executable, "-m", "weightcomb", *argv],
        capture_output=True, cwd=REPO, env=subprocess_env(), timeout=120,
    )
    assert run.returncode == pinned["exit"]
    assert len(run.stdout) == pinned["bytes"]
    assert hashlib.sha256(run.stdout).hexdigest() == pinned["sha256"]


# sha256 of two gl weights reports at delta = 4, the first delta where the
# all-lengths order of the compositions of delta differs from the by-length one.
DELTA_FOUR_REPORTS = {
    ("16", "5", "2"): "9da544144e42fad1bcc771eb8c4fb577c2b0462330a423fada15e94986e6549a",
    ("81", "4", "3"): "c694fcc7381e88411a7c38c30af6431619449a9d7a2ba13eaf7842261055c065",
}


@pytest.mark.parametrize("n, q, ell", DELTA_FOUR_REPORTS)
def test_delta_four_weight_reports_keep_their_bytes(capsys, n, q, ell):
    argv = ["gl", "weights", "--n", n, "--q", q, "--eps", "+", "--ell", ell]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["results"][0]["af"][-1]["af"]["c_seq"] == [1, 1, 1, 1]
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == DELTA_FOUR_REPORTS[(n, q, ell)]


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("weightcomb ")


# ---------------------------------------------------------------------------
# partition commands.


def test_partition_tower(capsys):
    code, report = run_json(capsys, "partition", "tower", "2,1", "--ell", "3")
    assert code == 0
    tower = report["results"][0]["tower"]
    assert tower["total"] == 3
    assert tower["row_sizes"] == [0, 1]
    assert tower["rows"] == [[[]], [[], [1], []]]


def test_partition_defect(capsys):
    code, report = run_json(capsys, "partition", "defect", "2,1", "--ell", "3")
    assert code == 0
    assert report["results"][0] == {"defect": 1}


def test_partition_hooks(capsys):
    code, report = run_json(capsys, "partition", "hooks", "3")
    assert code == 0
    assert report["results"][0]["hooks"] == [[3], [2, 1], [1, 1, 1]]


def test_partition_core_quotient_match_library(capsys):
    code, report = run_json(capsys, "partition", "core", "4,2,1", "--d", "3")
    assert code == 0
    assert tuple(report["results"][0]["core"]) == d_core((4, 2, 1), 3)
    code, report = run_json(capsys, "partition", "quotient", "2,2", "--d", "2")
    assert code == 0
    got = tuple(tuple(p) for p in report["results"][0]["quotient"])
    assert got == d_quotient((2, 2), 2)


def test_partition_empty_input(capsys):
    code, report = run_json(capsys, "partition", "defect", "0", "--ell", "3")
    assert code == 0
    assert report["results"][0] == {"defect": 0}


def test_partition_parse_errors(capsys):
    for bad in ("1,2,bogus", "1,2", "2,0", "-3"):
        code, _, err = run(capsys, "partition", "core", bad, "--d", "2")
        assert code == 2, bad
        assert err.strip()


def test_partition_core_rejects_d_one(capsys):
    code, _, err = run(capsys, "partition", "core", "2,1", "--d", "1")
    assert code == 2 and "d" in err


def test_composite_ell_is_a_usage_error(capsys):
    for argv in (
        ["young", "verify", "--kind", "sym", "--n", "8", "--ell", "4"],
        ["young", "verify", "--kind", "sym", "--n", "9", "--ell", "6"],
        ["partition", "defect", "4,2", "--ell", "4"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "prime" in err, argv
    # Cores and towers are defined for any d, ell >= 2.
    assert run(capsys, "partition", "tower", "4,2", "--ell", "4")[0] == 0
    assert run(capsys, "partition", "core", "4,2", "--d", "4")[0] == 0


# ---------------------------------------------------------------------------
# young commands.


def test_young_verify_sym(capsys):
    code, report = run_json(
        capsys, "young", "verify", "--kind", "sym", "--n", "4", "--ell", "2"
    )
    assert code == 0
    result = report["results"][0]
    assert result["count_irr"] == result["count_triples"] == 5
    assert result["pass"] is True


def test_young_verify_sym_12(capsys):
    code, report = run_json(
        capsys, "young", "verify", "--kind", "sym", "--n", "12", "--ell", "3"
    )
    assert code == 0
    assert report["results"][0]["count_irr"] == 77


def test_young_verify_typed(capsys):
    code, report = run_json(
        capsys, "young", "verify", "--kind", "typed",
        "--e", "1", "--n", "2", "--ell", "3",
    )
    assert code == 0
    assert report["results"][0]["count_triples"] == 4


def test_young_verify_wreath_needs_e(capsys):
    code, _, err = run(
        capsys, "young", "verify", "--kind", "wreath", "--n", "3", "--ell", "5"
    )
    assert code == 2 and err.strip()


# ---------------------------------------------------------------------------
# gl commands.


def test_gl_blocks(capsys):
    code, report = run_json(
        capsys, "gl", "blocks", "--n", "2", "--q", "4", "--eps", "+", "--ell", "3"
    )
    assert code == 0
    assert len(report["results"]) == 3
    assert report["results"][0]["s"] == [["0/1", 2]]


def test_gl_weights_principal(capsys):
    code, report = run_json(
        capsys, "gl", "weights", "--n", "9", "--q", "4", "--eps", "+",
        "--ell", "3", "--block", "principal",
    )
    assert code == 0
    result = report["results"][0]
    assert result["generic_count"] == result["af_count"] == 9
    assert result["generic"][0] == {"generic": [9]}
    assert result["af"][0]["af"]["gamma"] == 2


def test_gl_weights_by_index(capsys):
    all_blocks = blocks(2, 4, 1, 3)
    for index, block in enumerate(all_blocks):
        code, report = run_json(
            capsys, "gl", "weights", "--n", "2", "--q", "4", "--eps", "+",
            "--ell", "3", "--block", str(index),
        )
        assert code == 0
        assert report["results"][0]["block"] == json.loads(
            json.dumps(block.to_json_dict())
        )
    code, _, err = run(
        capsys, "gl", "weights", "--n", "2", "--q", "4", "--eps", "+",
        "--ell", "3", "--block", "99",
    )
    assert code == 2 and "out of range" in err
    code, _, err = run(
        capsys, "gl", "weights", "--n", "2", "--q", "4", "--eps", "+",
        "--ell", "3", "--block", "bogus",
    )
    assert code == 2


def test_gl_verify(capsys):
    code, report = run_json(
        capsys, "gl", "verify", "--n", "3", "--q", "4", "--eps", "+", "--ell", "3"
    )
    assert code == 0
    result = report["results"][0]
    assert result["pass"] is True
    assert result["s_count"] == 5
    assert result["weights_total"] == result["af_total"] == 5


def test_short_af_enumeration_is_a_reported_failure(capsys, monkeypatch):
    """An AF enumeration that comes up short is a mismatch in the counting
    report and exit 1 from the CLI, not an exception."""
    compositions = glblocks.compositions

    def drop_last(total):
        found = list(compositions(total))
        return found[:-1] if total else found

    monkeypatch.setattr(glblocks, "compositions", drop_last)
    report = verify_counting(3, 4, 1, 3)
    assert report.passed is False
    assert [(m["generic"], m["af"]) for m in report.mismatches] == [(3, 1)]
    argv = ["--n", "3", "--q", "4", "--eps", "+", "--ell", "3"]
    code, out = run_json(capsys, "gl", "weights", *argv)
    assert code == 1 and out["pass"] is False
    result = out["results"][0]
    assert (result["generic_count"], result["af_count"]) == (3, 1)
    code, out = run_json(capsys, "gl", "verify", *argv)
    assert code == 1 and out["results"][0]["pass"] is False


def test_gl_eps_forms(capsys):
    for eps in ("-", "-1"):
        code, report = run_json(
            capsys, "gl", "verify", "--n", "2", "--q", "2", "--eps", eps,
            "--ell", "5",
        )
        assert code == 0
        assert report["params"]["eps"] == "-"


def test_gl_exit_codes(capsys):
    code, _, err = run(
        capsys, "gl", "verify", "--n", "7", "--q", "2", "--eps", "+", "--ell", "3"
    )
    assert code == 3 and "bound" in err.lower()
    code, _, _ = run(
        capsys, "gl", "verify", "--n", "2", "--q", "5", "--eps", "-", "--ell", "2"
    )
    assert code == 2
    code, _, _ = run(
        capsys, "gl", "verify", "--n", "2", "--q", "9", "--eps", "+", "--ell", "3"
    )
    assert code == 2  # ell divides q
    code, _, _ = run(capsys, "gl", "verify", "--n", "2", "--q", "4", "--eps", "*",
                     "--ell", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# hook command.


def test_hook_command(capsys):
    code, report = run_json(
        capsys, "hook", "--n", "9", "--q", "4", "--eps", "+", "--ell", "3"
    )
    assert code == 0
    result = report["results"][0]
    assert result["mode"] == "hooks" and len(result["partitions"]) == 9
    code, _, _ = run(capsys, "hook", "--n", "1", "--q", "4", "--eps", "+",
                     "--ell", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# campaign command.


def test_campaign_default_grid(capsys):
    code, report = run_json(capsys, "campaign")
    assert code == 0
    assert report["pass"] is True
    assert report["params"]["config"] == "default"
    ops = [r["op"] for r in report["results"]]
    assert ops[0] == "hook_scan" and ops[-1] == "gl_grid"
    grid = report["results"][-1]
    assert grid["points"] == 228 and grid["pass"] and grid["failures"] == []


def test_campaign_empty_grid(capsys, tmp_path):
    config = tmp_path / "empty.json"
    config.write_text('{"items": []}')
    code, report = run_json(capsys, "campaign", str(config))
    assert code == 0
    assert report["pass"] is True and report["results"] == []


def test_campaign_malformed_configs(capsys, tmp_path):
    cases = [
        "not json {",
        '{"no_items": 1}',
        '{"items": [42]}',
        '{"items": [{"op": "unknown_op"}]}',
        '{"items": [{"op": "gl_verify", "n": "two", "q": 4, "ell": 3}]}',
    ]
    for pos, text in enumerate(cases):
        config = tmp_path / f"bad{pos}.json"
        config.write_text(text)
        code, _, err = run(capsys, "campaign", str(config))
        assert code == 2, text
        assert err.strip(), text
    code, _, err = run(capsys, "campaign", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err


def test_campaign_custom_items(capsys, tmp_path):
    config = tmp_path / "items.json"
    config.write_text(json.dumps({
        "items": [
            {"op": "gl_verify", "n": 2, "q": 4, "eps": "+", "ell": 3},
            {"op": "young_verify", "kind": "sym", "n": 4, "ell": 2},
            {"op": "shape_identity", "delta_max": 3, "ells": [3]},
            {"op": "hook_scan", "n_max": 3},
        ]
    }))
    code, report = run_json(capsys, "campaign", str(config))
    assert code == 0
    results = report["results"]
    assert [r["op"] for r in results] == [
        "gl_verify", "young_verify", "shape_identity", "hook_scan",
    ]
    assert results[0]["blocks"] == 3 and results[0]["pass"]
    assert results[1]["count_irr"] == 5
    assert all(r["pass"] for r in results)


def test_campaign_bound_exceeded_item(capsys, tmp_path):
    config = tmp_path / "big.json"
    config.write_text(
        '{"items": [{"op": "gl_verify", "n": 7, "q": 2, "eps": "+", "ell": 3}]}'
    )
    code, _, err = run(capsys, "campaign", str(config))
    assert code == 3 and "bound" in err.lower()


SMALL_CAMPAIGN = {
    "items": [
        {"op": "gl_verify", "n": 2, "q": 4, "eps": "+", "ell": 3},
        {"op": "young_verify", "kind": "sym", "n": 6, "ell": 2},
        {"op": "shape_identity", "delta_max": 4, "ells": [3, 5]},
    ]
}


def test_campaign_outputs_and_parallel_stability(capsys, tmp_path):
    """--out repeats stdout byte for byte and --csv summarizes the items.
    Items always run in order in one thread: "jobs" is always 1, and there
    is no --jobs flag."""
    config = tmp_path / "items.json"
    config.write_text(json.dumps(SMALL_CAMPAIGN))
    out_file = tmp_path / "report.json"
    csv_file = tmp_path / "summary.csv"
    code, out, _ = run(
        capsys, "campaign", str(config),
        "--out", str(out_file), "--csv", str(csv_file),
    )
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == out
    assert json.loads(out)["params"]["jobs"] == 1
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "index,op,pass"
    assert len(lines) == 4 and all(line.endswith("True") for line in lines[1:])
    code, _, err = run(capsys, "campaign", str(config), "--jobs", "2")
    assert code == 2 and "--jobs" in err


def test_campaign_same_report_under_optimize(tmp_path):
    """No behaviour depends on assert statements: python -O gives the same
    exit code and byte-identical stdout."""
    config = tmp_path / "items.json"
    config.write_text(json.dumps(SMALL_CAMPAIGN))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "weightcomb", "campaign", str(config)],
            capture_output=True, env=subprocess_env(), timeout=120,
        )
        for flags in ([], ["-O"])
    ]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["pass"] is True


# ---------------------------------------------------------------------------
# The report writer.


def emitted(value):
    buf = io.StringIO()
    _emit(value, buf)
    return buf.getvalue()


TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",))
    | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\u00e9\U0001f600'),
    max_size=12,
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | TEXT | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_writer_matches_json_dumps(value):
    assert emitted(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_writer_generators_and_unsupported_types():
    value = {"b": (x for x in [1, {"c": []}, ()]), "a": (x for x in ())}
    expected = {"b": [1, {"c": []}, []], "a": []}
    assert emitted(value) == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert emitted([0.5, -2.0]) == json.dumps([0.5, -2.0], indent=2) + "\n"
    with pytest.raises(TypeError):
        emitted({"a": [1, {2, 3}]})


class WriteLog:
    """A stdout stand-in that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_gl_blocks_report_streams(monkeypatch):
    log = WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert main(GL_BLOCKS_4) == 0
    params = {"action": "blocks", "n": 4, "q": 9, "eps": "+", "ell": 5}
    results = [b.to_json_dict() for b in blocks(4, 9, 1, 5)]
    report = _report(GL_BLOCKS_4, params, results, True)
    assert "".join(log.writes) == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert len(log.writes) > 1
    assert max(len(text.encode("utf-8")) for text in log.writes) <= 256 * 1024


def test_gl_blocks_errors_leave_stdout_empty(capsys):
    code, out, err = run(capsys, *GL_BLOCKS_4[:2], "--n", "7", *GL_BLOCKS_4[4:])
    assert (code, out) == (3, "") and "bound" in err
    code, out, _ = run(
        capsys, "gl", "blocks", "--n", "2", "--q", "5", "--eps", "-", "--ell", "2"
    )
    assert (code, out) == (2, "")


def test_closed_stdout_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "weightcomb", *GL_BLOCKS_4],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()  # the report is ~1.2 MB, far beyond one pipe buffer
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


# ---------------------------------------------------------------------------
# Usage errors.


def test_unknown_command(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "partition", "nonsense", "2,1")[0] == 2
    assert run(capsys)[0] == 2
