"""Tests for the command-line interface: JSON reports and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from collections import OrderedDict, namedtuple
from enum import IntEnum
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from weightcomb import cli, glblocks, partitions
from weightcomb.cli import _emit, _report, main
from weightcomb.glblocks import blocks, semisimple_labels, verify_counting
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
    # The four full-size gl_blocks points, about 1.2 MB of JSON each.
    "gl_blocks_4_9_plus_5": GL_BLOCKS_4,
    "gl_blocks_4_7_minus_5": [
        "gl", "blocks", "--n", "4", "--q", "7", "--eps", "-", "--ell", "5"
    ],
    "gl_blocks_5_5_plus_7": [
        "gl", "blocks", "--n", "5", "--q", "5", "--eps", "+", "--ell", "7"
    ],
    "gl_blocks_4_8_plus_5": [
        "gl", "blocks", "--n", "4", "--q", "8", "--eps", "+", "--ell", "5"
    ],
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


# sha256 of a report of every command that the pins above leave out.
COMMAND_REPORTS = {
    "partition core 7,5,3,1 --d 3":
        "2529532ad49bd947270cedec2d2b4334059f56ccd037cf1a7c4fe6843e97c175",
    "partition quotient 7,5,3,1 --d 3":
        "492915deb1846326c3a1f8cfeeeeb35920f54440a7320a432c2e7e00b5d3f596",
    "partition tower 9,6,4,4,2,1 --ell 2":
        "ed8438626ecb98afe0268683e3eb63f16632cd15d78b6d3df18ed1f0a3be685b",
    "partition defect 9,6,4,4,2,1 --ell 3":
        "3cf72bd23828cf0d8dd95e1243ec667720fa299b9bea5cc30cf059e9665f469a",
    "partition hooks 6":
        "38fe59b71487b6d85236ac2fdf8fda5fbb3e4ffbf8bdda657ccaff66119c89cc",
    "hook --n 9 --q 4 --eps + --ell 3":
        "b844a87a1a1df940cb002a2e066589ba1a5872756f2da4ba0eee254f60f02e2b",
    "hook --n 4 --q 7 --eps - --ell 2":
        "b367ed0fad85e27c75bcb3921213237991c4d1fc6b22b0a53a230b168845b374",
    "gl verify --n 3 --q 4 --eps + --ell 3":
        "287e0570b024aa68663107efd265024d1de3b68c7579bc3e232e61ce266ffaa6",
    "gl weights --n 9 --q 4 --eps + --ell 3 --block principal":
        "395222346c7dca46abd7b609f27f950e333051198b2ab1887b765c51cdf35746",
    # the first and the last of the 14 blocks, taken from the block stream
    "gl weights --n 3 --q 5 --eps - --ell 3 --block 0":
        "9ecabcd63b5604d6bed8f2df45f9f5262275b0de49932dee925a22742a19d1b6",
    "gl weights --n 3 --q 5 --eps - --ell 3 --block 13":
        "0b6c81192b2e6824fcc14ebc6da04a92380d6a3c4ce892541f9ee2e71b709f68",
}


@pytest.mark.parametrize("command", COMMAND_REPORTS)
def test_command_reports_keep_their_bytes(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_REPORTS[command]


def test_failing_reports_keep_their_bytes(capsys, monkeypatch):
    """The exit-1 reports of a short AF enumeration (see
    test_short_af_enumeration_is_a_reported_failure)."""
    compositions = glblocks.compositions
    monkeypatch.setattr(
        glblocks, "compositions",
        lambda total: list(compositions(total))[:-1] if total else compositions(total),
    )
    point = ["--n", "3", "--q", "4", "--eps", "+", "--ell", "3"]
    for action, digest in (
        ("weights", "ee8aa5287ced2493a3dac36cb558fc401c0bee1373344bbd2087a40f17fe2d22"),
        ("verify", "71492dd4fe7a082c7481b99727a5f04d4a77ff39623cbcdc34e8a5096aa044b6"),
    ):
        code, out, _ = run(capsys, "gl", action, *point)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest, action


def test_campaign_config_report_keeps_its_bytes(capsys, tmp_path, monkeypatch):
    """The report of SMALL_CAMPAIGN, whose "command" echoes the argv."""
    monkeypatch.chdir(tmp_path)  # the report echoes the relative paths
    Path("items.json").write_text(json.dumps(SMALL_CAMPAIGN))
    code, out, _ = run(capsys, "campaign", "items.json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "ee32028e3596154ec0d5c14942e78a382271a9217618e586247cbca19299c277"


class EmitCount:
    """Stands in for ``cli._emit``: counts the calls, then writes."""

    def __init__(self, emit):
        self.emit, self.calls = emit, 0

    def __call__(self, report):
        self.calls += 1
        self.emit(report)


@pytest.mark.parametrize(
    "command", [*COMMAND_REPORTS, "campaign", "campaign bench/smoke_campaign.json"]
)
def test_main_emits_each_report_once(capsys, monkeypatch, command):
    """main is the one writer: one _emit call per report, made by main."""
    monkeypatch.chdir(REPO)
    count = EmitCount(cli._emit)
    monkeypatch.setattr(cli, "_emit", count)
    code, out, _ = run(capsys, *command.split())
    assert (code, count.calls) == (0, 1)
    assert json.loads(out)["command"] == command.split()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["partition", "core", "3,1", "--d", "1"], 2),
        (["partition", "hooks", "2001"], 3),
        (["hook", "--n", "45", "--q", "3", "--eps", "+", "--ell", "2"], 3),
        (["gl", "blocks", "--n", "7", "--q", "9", "--eps", "+", "--ell", "5"], 3),
        (["young", "verify", "--kind", "sym", "--n", "31", "--ell", "2"], 3),
        (["campaign", "--out", "report.json"], 2),
    ],
)
def test_main_emits_nothing_on_usage_error_or_bound(capsys, monkeypatch, argv, code):
    count = EmitCount(cli._emit)
    monkeypatch.setattr(cli, "_emit", count)
    assert run(capsys, *argv)[:2] == (code, "")
    assert count.calls == 0


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    """Every ``weightcomb ...`` line of README's "Command line" example runs
    and passes, with README's campaign config as myconfig.json."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Command line"):]
    block = section[section.index("```sh\n") + 6:]
    block = block[:block.index("```")]
    config = section[section.index("```json\n") + 8:]
    monkeypatch.chdir(tmp_path)
    Path("myconfig.json").write_text(config[:config.index("```")], encoding="utf-8")
    lines = [line for line in block.splitlines() if line.startswith("weightcomb ")]
    assert len(lines) >= 13
    for line in lines:
        code, _, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)


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
    code, out, err = run(capsys, "partition", "hooks", "-1")
    assert (code, out, err) == (2, "", "error: n must be >= 0, got -1\n")


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


def test_gl_weights_index_out_of_range_counts_every_block(capsys):
    argv = ["gl", "weights", "--n", "3", "--q", "5", "--eps", "-", "--ell", "3", "--block"]
    for index in ("14", "15", "-1", "99999999999999999999999"):
        code, out, err = run(capsys, *argv, index)
        assert (code, out) == (2, "")
        assert err == f"error: block index {index} out of range (have 14 blocks)\n"


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


@pytest.mark.parametrize(
    "value, eps",
    [("+", 1), ("+1", 1), ("1", 1), ("-", -1), ("-1", -1), (1, 1), (-1, -1),
     (True, None), (1.0, None), (None, None), (0, None), ("0", None)],
)
def test_eps_forms_of_flag_and_campaign_item(capsys, tmp_path, value, eps):
    """--eps and a campaign item's "eps" read one table: the same strings
    mean the same eps, the JSON integers 1 and -1 are accepted too, and any
    other value is a usage error (exit 2, empty stdout, no traceback)."""
    sign = {1: "+", -1: "-", None: None}[eps]
    config = tmp_path / "eps.json"
    config.write_text(json.dumps(
        {"items": [{"op": "gl_verify", "n": 2, "q": 4, "eps": value, "ell": 3}]}
    ))
    code, out, err = run(capsys, "campaign", str(config))
    if eps is None:
        assert (code, out) == (2, ""), value
        assert err == f"error: items[0]: field 'eps' must be '+' or '-', got {value!r}\n"
    else:
        assert code == 0, value
        assert json.loads(out)["results"][0]["eps"] == sign
    if isinstance(value, str):
        argv = ["gl", "verify", "--n", "2", "--q", "4", "--eps", value, "--ell", "3"]
        code, out, err = run(capsys, *argv)
        if eps is None:
            assert (code, out) == (2, "") and "Traceback" not in err
            assert err.splitlines()[-1].endswith(f"eps must be '+' or '-', got {value!r}")
        else:
            assert code == 0 and json.loads(out)["params"]["eps"] == sign


def test_broken_invariant_is_one_json_record(capsys, monkeypatch):
    """An AssertionError from a library invariant exits 1 with one JSON line
    on stderr naming the command, and leaves stdout empty."""
    cases = [
        # verify_counting finds too few representative labels for a shape
        (glblocks, "_first_labels", lambda *args: [],
         ["gl", "verify", "--n", "2", "--q", "4", "--eps", "+", "--ell", "3"],
         "not enough degree-2 labels for (1,)"),
        # tower row sizes that are no ell-expansion of n break nu
        (partitions, "core_tower", lambda mu, ell: SimpleNamespace(row_sizes=lambda: (2,)),
         ["partition", "defect", "2,1", "--ell", "3"],
         "1 is not divisible by ell - 1 = 2"),
    ]
    for module, name, broken, argv, message in cases:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, broken)
            code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record == {"error": "invariant", "message": record["message"], "command": argv}
        assert message in record["message"]


def invariant_record(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n")) == (1, "", 1)
    record = json.loads(err)
    assert record["error"] == "invariant" and record["command"] == list(argv)
    return record["message"]


def test_representative_invariant_names_needed_and_found(capsys, monkeypatch):
    real = glblocks._first_labels

    def one_short(q, eps, ell, deg, count):
        labels = real(q, eps, ell, deg, count)
        return labels[:-1] if count > 1 else labels

    monkeypatch.setattr(glblocks, "_first_labels", one_short)
    message = invariant_record(
        capsys, "gl", "verify", "--n", "2", "--q", "9", "--eps", "+", "--ell", "5"
    )
    assert message == "not enough degree-1 labels for (1, 1): need 2, found 1"


def test_action_invariant_names_both_degrees(capsys, monkeypatch):
    real_label = glblocks._label

    def raised_degree(num, den, step):
        lab = real_label(num, den, step)
        return glblocks.FracLabel(lab.deg + 1, lab.den, lab.num)

    def frobenius_images(n, q, eps, ell):
        found = blocks(n, q, eps, ell)
        monkeypatch.setattr(glblocks, "_label", raised_degree)
        return [glblocks.act_on_block("frob", b) for b in found]

    monkeypatch.setattr(cli, "_block_stream", frobenius_images)
    message = invariant_record(capsys, *GL_BLOCKS_4)
    assert message == "action changed the degree of 0/1 from 1 to 2"


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


def test_hook_listings_are_bounded(capsys):
    """A listing is refused past 4,000,000 cells, counted before it is
    enumerated: n * n for the hooks of n, n * p(n) for every partition (see
    test_hook_listing_bound_holds_from_44_to_45 for both sides of it)."""
    bound = "would hold more than 4000000 cells\n"
    code, out, err = run(capsys, "partition", "hooks", "2001")
    assert (code, out, err) == (3, "", f"bound exceeded: listing the hooks of 2001 {bound}")
    # Mode "all": ell = 2 and 4 does not divide q - eps.
    for n in ("45", "100", "1000000000"):
        code, out, err = run(capsys, "hook", "--n", n, "--q", "3", "--eps", "+", "--ell", "2")
        assert (code, out) == (3, ""), n
        assert err == f"bound exceeded: listing every partition of {n} {bound}"
    # Mode "hooks": n a power of ell = 2, and 4 divides q - eps.
    code, out, err = run(capsys, "hook", "--n", "2048", "--q", "3", "--eps", "-", "--ell", "2")
    assert (code, out, err) == (3, "", f"bound exceeded: listing the hooks of 2048 {bound}")


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
    # younggrp owns the kind rule; its message names the bad value.
    config = tmp_path / "kind.json"
    config.write_text('{"items": [{"op": "young_verify", "kind": "bogus", "n": 4, "ell": 2}]}')
    code, out, err = run(capsys, "campaign", str(config))
    assert (code, out) == (2, "")
    assert err == "error: kind must be one of ('sym', 'wreath', 'typed'), got 'bogus'\n"


@pytest.mark.parametrize(
    "item, field",
    [
        ({"op": "gl_grid", "n_max": 0}, "n_max"),
        ({"op": "gl_grid", "n_max": -1}, "n_max"),
        ({"op": "hook_scan", "n_max": 1}, "n_max"),
        ({"op": "shape_identity", "delta_max": -3, "ells": [3]}, "delta_max"),
        ({"op": "shape_identity", "delta_max": 2, "ells": []}, "ells"),
        ({"op": "shape_identity", "delta_max": -3, "ells": []}, "delta_max"),
    ],
)
def test_campaign_item_that_checks_nothing_is_refused(capsys, tmp_path, item, field):
    """An item that would visit no point cannot pass: exit 2, empty stdout,
    and a message that names the field."""
    config = tmp_path / "empty_item.json"
    config.write_text(json.dumps({"items": [{"op": "hook_scan", "n_max": 2}, item]}))
    code, out, err = run(capsys, "campaign", str(config))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: items[1]: field {field!r} must be ")


@pytest.mark.parametrize(
    "item, message",
    [
        ({"op": "gl_grid", "nmax": 1}, "items[1]: gl_grid takes no field 'nmax'"),
        ({"op": "hook_scan", "n_max": 3, "ell": 7}, "items[1]: hook_scan takes no field 'ell'"),
        ({"op": "gl_verify", "n": 2, "q": 4, "l": 3}, "items[1]: gl_verify takes no field 'l'"),
        ({"op": "hook_scan", "n_max": 1}, "items[1]: field 'n_max' must be >= 2"),
        ({"op": "young_verify", "kind": "sym", "n": 4, "ell": 2, "e": "2"},
         "items[1]: field 'e' must be an integer"),
        ({"op": "young_verify", "n": 3, "ell": 3}, "items[1]: field 'kind' is required"),
        ({"op": "young_verify", "kind": "sym", "ell": 3}, "items[1]: field 'n' is required"),
        ({"op": "gl_verify", "n": 2, "ell": 3}, "items[1]: field 'q' is required"),
        ({"op": "gl_verify", "n": 2, "q": 4}, "items[1]: field 'ell' is required"),
    ],
)
def test_campaign_is_checked_whole_before_any_item_runs(
    capsys, tmp_path, monkeypatch, item, message
):
    """A misspelled, unknown or missing field, or a bad value, is a usage error
    that names its item and field, even behind a full gl_grid: no item runs."""
    def refuse(*args):
        raise AssertionError("verify_counting ran before the config was checked")

    monkeypatch.setattr(cli, "verify_counting", refuse)
    config = tmp_path / "items.json"
    config.write_text(json.dumps({"items": [{"op": "gl_grid"}, item]}))
    code, out, err = run(capsys, "campaign", str(config))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message), err


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
    """The report goes to stdout only: there is no --out or --csv copy.
    Items always run in order in one thread: "jobs" is always 1, and there
    is no --jobs flag."""
    config = tmp_path / "items.json"
    config.write_text(json.dumps(SMALL_CAMPAIGN))
    code, out, err = run(capsys, "campaign", str(config))
    assert code == 0
    assert json.loads(out)["params"]["jobs"] == 1
    assert err == "campaign: 3 items, 3 passed\n"
    report, summary = tmp_path / "report.json", tmp_path / "summary.csv"
    for flag, value in (("--out", report), ("--csv", summary), ("--jobs", "2")):
        code, out, err = run(capsys, "campaign", str(config), flag, str(value))
        assert (code, out) == (2, ""), flag
        assert flag in err, flag
    assert not report.exists() and not summary.exists()


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


def emitted(report):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(report)
    return buf.getvalue()


def dumped(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def as_report(results, params=None):
    return _report(["cmd", "arg"], params or {"k": "v"}, results, True)


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
@given(
    # one value's leaf budget for the whole results list
    JSON_VALUES.map(lambda v: list(v) if isinstance(v, (list, tuple)) else [v]),
    # params with a "results" key put a decoy '"results": []' before the real one
    st.sampled_from([{"k": "v"}, {"results": []}]),
)
def test_writer_matches_json_dumps(values, params):
    """A results list, and the same results as an iterator of pre-rendered
    texts, both give json.dumps's bytes."""
    expected = dumped(as_report(values, params))
    assert emitted(as_report(values, params)) == expected
    texts = (json.dumps(value, sort_keys=True, indent=2) for value in values)
    assert emitted(as_report(texts, params)) == expected


class Colour(IntEnum):
    RED = 1


class Name(str):
    pass


Point = namedtuple("Point", "x y")


@pytest.mark.parametrize(
    "value",
    [
        [True, False, 1, "a"],
        {"t": True, "f": False, "i": 0},
        [Colour.RED, {"c": Colour.RED}],
        [Name("x"), {"n": Name("y")}],
        OrderedDict([("b", 1), ("a", [2])]),
        {"o": OrderedDict([("z", "1")])},
        [Point(1, "p"), {"pt": Point(2, [3])}],
        {"f": 0.5, "g": -2.0},
        {"d": {}, "l": [], "t": (), "n": None},
    ],
)
def test_writer_non_exact_types_match_json_dumps(value):
    """Bools, subclasses of int, str, dict and tuple, floats and empty
    containers, in the params and the results, keep json.dumps's bytes."""
    report = as_report([value], {"p": value})
    assert emitted(report) == dumped(report)


@pytest.mark.parametrize("value", [{"a": {1, 2}}, [1, {1, 2}]])
def test_writer_rejects_a_set(value):
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        emitted(as_report([value]))


class WriteLog:
    """A stdout stand-in that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_writer_splices_an_empty_iterator():
    log = WriteLog()
    with contextlib.redirect_stdout(log):
        _emit(as_report(iter(())))
    assert "".join(log.writes) == dumped(as_report([]))


def test_writer_splices_big_texts_in_chunks():
    """Pre-rendered texts go out in writes of about 64 KB, each at most
    64 KB plus one text, however large the texts."""
    value = {"e": [], "z": ["z" * 10_000]}
    big = json.dumps(value, sort_keys=True, indent=2)
    log = WriteLog()
    with contextlib.redirect_stdout(log):
        _emit(as_report(iter([big] * 60)))
    assert "".join(log.writes) == dumped(as_report([value] * 60))
    assert len(log.writes) > 1
    spliced = ",\n    " + big.replace("\n", "\n    ")
    assert max(map(len, log.writes)) <= 65536 + len(spliced)


@pytest.mark.parametrize(
    "points",
    [glblocks.grid_points(3), [(4, 9, 1, 5)], [(4, 7, -1, 5)]],
    ids=["n<=3", "4_9_plus_5", "4_7_minus_5"],
)
def test_block_texts_match_to_json_dict(points):
    """The rendered text of every block is its to_json_dict's json.dumps."""
    for point in points:
        all_blocks = blocks(*point)
        assert list(cli._block_texts(all_blocks)) == [
            json.dumps(b.to_json_dict(), sort_keys=True, indent=2) for b in all_blocks
        ], point


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


class LabelsAtWrite(WriteLog):
    """A stdout stand-in that notes, at each write, how many semisimple
    labels have had their blocks enumerated (``glblocks._blocks_of`` calls)."""

    def __init__(self, monkeypatch):
        super().__init__()
        self.labels, self.at_write = 0, []
        blocks_of = glblocks._blocks_of

        def counted(s):
            self.labels += 1
            return blocks_of(s)

        monkeypatch.setattr(glblocks, "_blocks_of", counted)

    def write(self, text):
        self.at_write.append(self.labels)
        return super().write(text)


def test_gl_blocks_writes_before_the_last_label_is_walked(monkeypatch):
    """gl blocks holds no block list: at (4, 9, +, 5), about 1 MB of report,
    the first write comes before the last semisimple label is enumerated."""
    total = len(semisimple_labels(4, 9, 1, 5))
    log = LabelsAtWrite(monkeypatch)
    monkeypatch.setattr(sys, "stdout", log)
    assert main(GL_BLOCKS_4) == 0
    assert log.labels == total
    assert 0 < log.at_write[0] < total


def test_invariant_broken_mid_stream_truncates_stdout(capsys, monkeypatch):
    """An invariant that breaks after the first 64 KB chunk still exits 1
    with one stderr record; stdout is then a strict prefix of the report."""
    _, full, _ = run(capsys, *GL_BLOCKS_4)
    last = semisimple_labels(4, 9, 1, 5)[-1]
    blocks_of = glblocks._blocks_of

    def breaks_at_the_last_label(s):
        if s == last:
            raise AssertionError("broken at the last label")
        return blocks_of(s)

    monkeypatch.setattr(glblocks, "_blocks_of", breaks_at_the_last_label)
    code, out, err = run(capsys, *GL_BLOCKS_4)
    assert (code, err.count("\n")) == (1, 1)
    assert json.loads(err) == {
        "error": "invariant", "message": "broken at the last label", "command": GL_BLOCKS_4,
    }
    assert 65536 < len(out) < len(full) and full.startswith(out)


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
