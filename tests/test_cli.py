"""Command-line interface: output shapes, exit codes, determinism."""

import importlib.resources
import json
import re
from fractions import Fraction

import jsonschema
import pytest

from flagtke.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, MAX_DIGITS, main
from flagtke.rootsys import RootSystem

RATIONAL = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


@pytest.fixture(scope="module")
def schema():
    ref = importlib.resources.files("flagtke").joinpath("schema/result.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# worked examples


def test_flag_full_a2(capsys):
    code, out, _ = run(capsys, "flag", "A2", "--theta", "")
    assert code == EXIT_OK
    assert "koszul: [2, 2]" in out
    assert "dim: 3" in out
    assert "degree: 48" in out
    assert "snow bound (n+1)^n: 64" in out


def test_flag_complement_spec(capsys):
    code, doc, _ = run_json(capsys, "flag", "A3", "--complement", "2,3")
    assert code == EXIT_OK
    assert doc["command"] == "flag"
    assert doc["input"]["theta"] == [1]
    assert doc["input"]["complement"] == [2, 3]
    assert doc["result"]["koszul"] == [3, 2]
    assert doc["result"]["dim"] == 5
    assert doc["result"]["degree"] == "4500"
    assert doc["result"]["snow_ok"] is True


def test_flag_all_nodes_crossed_is_usage_error(capsys):
    code, out, err = run(capsys, "flag", "D5", "--theta", "1,2,3,4,5")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")
    assert "point" in err


def test_flag_empty_complement_is_usage_error_naming_the_complement(capsys):
    point = "the quotient is a point, not a flag variety\n"
    code, out, err = run(capsys, "flag", "A2", "--complement", "")
    assert (code, out, err) == (EXIT_USAGE, "", "error: complement is empty for A2: " + point)
    code, out, err = run(capsys, "flag", "A2", "--theta", "1,2")
    assert (code, out, err) == (
        EXIT_USAGE, "", "error: theta covers every simple root of A2: " + point)


def test_tke_exists_on_p1(capsys):
    code, doc, _ = run_json(capsys, "tke", "A1", "--theta", "", "--beta", "1")
    assert code == EXIT_OK
    assert doc["result"]["exists"] is True
    assert doc["result"]["metric"] == ["1"]
    assert doc["result"]["margins"] == {"1": "1"}


def test_tke_negative_verdict_still_exits_zero(capsys):
    code, out, _ = run(capsys, "tke", "A1", "--theta", "", "--beta", "2")
    assert code == EXIT_OK
    assert "tke exists: no" in out
    assert "metric omega: (none" in out


@pytest.mark.parametrize("argv", [
    ("tke", "A2", "--theta", "", "--beta", "-1,2"),
    ("tke", "A2", "--complement", "1", "--beta", "-1/2"),
    ("grlb", "A2", "--theta", "", "--xi", "-1,2"),
    ("volume", "A2", "--theta", "", "--xi", "-.5,2"),
], ids=lambda a: " ".join(a[-2:]))
def test_a_class_value_may_start_with_a_minus_sign(capsys, argv):
    # "-" and a digit, or "-." and a digit, starts a value, as on CPython
    # 3.14: the token reads as it does joined by "="
    *head, option, value = argv
    assert run(capsys, *argv) == run(capsys, *head, f"{option}={value}")
    code, out, err = run(capsys, *argv)
    assert "expected one argument" not in err
    assert code == (EXIT_OK if argv[0] == "tke" else EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out == "" and err.count("\n") == 1 and "strictly positive" in err


def test_tke_rational_twist(capsys):
    code, doc, _ = run_json(
        capsys, "tke", "A3", "--complement", "2,3", "--beta", "5/2,1"
    )
    assert code == EXIT_OK
    assert doc["result"]["exists"] is True
    assert doc["result"]["metric"] == ["1/2", "1"]
    assert doc["result"]["margins"] == {"2": "1/2", "3": "1"}
    assert doc["input"]["beta"] == ["5/2", "1"]


def test_grlb_projective_plane(capsys):
    code, out, _ = run(capsys, "grlb", "A2", "--theta", "2", "--xi", "1")
    assert code == EXIT_OK
    assert "greatest Ricci lower bound: 3" in out
    code, doc, _ = run_json(capsys, "grlb", "A2", "--theta", "2", "--xi", "1")
    assert doc["result"]["value"] == "3"
    assert doc["result"]["argmin"] == [1]


def test_grlb_decimal_hint_respects_digits(capsys):
    code, out, _ = run(capsys, "grlb", "A2", "--theta", "2", "--xi", "7", "--digits", "3")
    assert code == EXIT_OK
    assert "3/7 (~0.429)" in out


def test_volume_projective_plane(capsys):
    code, doc, _ = run_json(capsys, "volume", "A2", "--theta", "2", "--xi", "3")
    assert code == EXIT_OK
    assert doc["result"]["volume"] == "9"
    assert doc["result"]["cross_check"] == "9"
    assert doc["result"]["dim"] == 2


def test_report_full_a2_bound_chain(capsys):
    code, out, _ = run(capsys, "report", "A2", "--theta", "", "--xi", "1,1")
    assert code == EXIT_OK
    assert "grlb^n * vol = 48 <= degree = 48 <= (n+1)^n = 64" in out
    assert "left: ok (equality)" in out
    assert "right: ok (strict)" in out
    code, doc, _ = run_json(capsys, "report", "A2", "--theta", "", "--xi", "1,1")
    assert doc["result"]["r_pow_vol"] == "48"
    assert doc["result"]["degree"] == "48"
    assert doc["result"]["snow_bound"] == "64"
    assert doc["result"]["left_equality"] is True
    assert doc["result"]["right_equality"] is False


def test_roots_g2(capsys):
    code, doc, _ = run_json(capsys, "roots", "G2")
    assert code == EXIT_OK
    assert doc["result"]["count"] == 6
    assert doc["result"]["cartan"] == [[2, -1], [-3, 2]]
    assert doc["result"]["maximal_root"] == [3, 2]
    assert doc["result"]["symmetrizer"] == ["1", "3"]


def test_sweep_rank_one(capsys):
    code, doc, _ = run_json(capsys, "sweep", "--max-rank", "1", "--samples", "3")
    assert code == EXIT_OK
    assert doc["result"]["flags"] == 1
    assert doc["result"]["samples"] == 3
    assert doc["result"]["ok"] is True
    assert doc["result"]["failures"] == []


def test_sweep_check_subset(capsys):
    code, doc, _ = run_json(
        capsys, "sweep", "--max-rank", "2", "--checks", "snow,cross"
    )
    assert code == EXIT_OK
    assert doc["input"]["checks"] == ["snow", "cross"]
    assert doc["result"]["ok"] is True
    code, out, err = run(
        capsys, "sweep", "--max-rank", "2", "--checks", "snow,snow,cross,cross"
    )
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_table_family_three_below_threshold(capsys):
    code, doc, _ = run_json(capsys, "table", "--family", "III", "--max-rank", "5")
    assert code == EXIT_OK
    assert doc["result"]["count"] == 0
    assert any("starts at rank 6" in w for w in doc["warnings"])


def test_table_family_two_rows(capsys):
    code, doc, _ = run_json(capsys, "table", "--family", "II", "--max-rank", "7")
    assert code == EXIT_OK
    assert doc["result"]["mismatches"] == 0
    assert doc["result"]["family_inconsistencies"] == 0
    rows = {(r["type"], tuple(r["complement"])): r for r in doc["result"]["rows"]}
    assert rows[("E6", (1, 3))]["expected"] == [2, 8]
    assert rows[("E7", (6, 7))]["expected"] == [12, 2]
    assert all(r["match"] for r in rows.values())


def test_table_text_has_header_and_summary(capsys):
    code, out, _ = run(capsys, "table", "--family", "I", "--max-rank", "4")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("family")
    assert any(line.startswith("rows:") for line in lines)


# ---------------------------------------------------------------------------
# exit codes and validation


def test_missing_node_choice_is_usage_error(capsys):
    code, _, err = run(capsys, "flag", "A2")
    assert code == EXIT_USAGE


def test_both_node_choices_is_usage_error(capsys):
    code, _, _ = run(capsys, "flag", "A2", "--theta", "1", "--complement", "2")
    assert code == EXIT_USAGE


def test_bad_rational_is_usage_error(capsys):
    code, _, _ = run(capsys, "tke", "A1", "--theta", "", "--beta", "1,x")
    assert code == EXIT_USAGE


def test_bad_type_token_is_usage_error(capsys):
    code, _, err = run(capsys, "flag", "X9", "--theta", "")
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_wrong_arity_is_usage_error(capsys):
    code, _, _ = run(capsys, "grlb", "A2", "--theta", "2", "--xi", "1,1")
    assert code == EXIT_USAGE


def test_nonpositive_kahler_is_usage_error(capsys):
    code, _, _ = run(capsys, "volume", "A2", "--theta", "2", "--xi", "0")
    assert code == EXIT_USAGE


def test_zero_denominator_is_usage_error(capsys):
    code, _, _ = run(capsys, "grlb", "A2", "--theta", "2", "--xi", "1/0")
    assert code == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "flag", "--help")[0] == 0


def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys)[0] == EXIT_USAGE


def test_verify_exit_code_constant():
    assert (EXIT_OK, EXIT_VERIFY, EXIT_USAGE) == (0, 1, 2)


@pytest.mark.parametrize(
    "argv, token",
    [
        (("flag", "A3", "--theta", "\u0663"), "'\u0663'"),  # ARABIC-INDIC DIGIT THREE
        (("flag", "A3", "--complement", "1_0"), "'1_0'"),
        (("flag", "A3", "--theta", "+3"), "'+3'"),
        (("flag", "A3", "--theta", "1,\uff12"), "'1,\uff12'"),  # FULLWIDTH DIGIT TWO
        (("sweep", "--max-rank", "1", "--seed", "\u0664\u0662"), "'\u0664\u0662'"),
    ],
    ids=["arabic-indic", "underscore", "plus", "fullwidth", "seed"],
)
def test_node_lists_and_seeds_take_ascii_digits_only(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    what = "an integer seed" if "--seed" in argv else "comma-separated integers"
    assert err.endswith(f"error: argument {argv[-2]}: expected {what}, got {token}\n")


def test_node_lists_and_seeds_keep_their_ascii_spellings(capsys):
    spaced = run_json(capsys, "flag", "A3", "--theta", " 1 , 3 ")[1]
    assert spaced["input"]["theta"] == [1, 3]
    for seed in ("0x2a", "42", "0o52", "4_2"):
        code, doc, _ = run_json(capsys, "sweep", "--max-rank", "1", "--samples", "1",
                                "--seed", seed)
        assert code == EXIT_OK and doc["input"]["seed"] == 42


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--max-rank", "\u0662"),  # ARABIC-INDIC DIGIT TWO
        ("sweep", "--samples", "\u0661"),  # ARABIC-INDIC DIGIT ONE
        ("sweep", "--digits", "+1_0"),
        ("flag", "A2", "--theta", "1", "--digits", "1_0"),
        ("table", "--max-rank", "1_0"),
    ],
    ids=["arabic-indic-rank", "arabic-indic-samples", "plus-underscore", "underscore",
         "table-rank"],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.endswith(f"error: argument {argv[-2]}: invalid int value: {argv[-1]!r}\n")


# A failing sweep in a fresh interpreter: the cross check's second volume
# route is replaced by one returning -1, as in the golden corpus.
_FAILING_CROSS = (
    "import sys; sys.path.insert(0, sys.argv[1]); from fractions import Fraction; "
    "import flagtke.sweep; flagtke.sweep.volume_cross_check = lambda p, xi: Fraction(-1); "
    "from flagtke.cli import main; sys.exit(main(sys.argv[2:]))"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("roots", "E8"), EXIT_OK),
        (("roots", "E8", "--json"), EXIT_OK),
        (("tke", "A2", "--theta", "", "--beta", "5,1"), EXIT_OK),  # a "no" verdict
        (("sweep", "--max-rank", "2", "--samples", "1", "--checks", "cross"), EXIT_VERIFY),
        (("sweep", "--max-rank", "2", "--samples", "1", "--checks", "cross", "--json"),
         EXIT_VERIFY),
        # 369 KB and 110 KB: more than a pipe holds, so the pipe breaks mid-document
        (("roots", "D32", "--json"), EXIT_OK),
        (("table", "--json"), EXIT_OK),
    ],
    ids=lambda a: " ".join(a) if isinstance(a, tuple) else None,
)
def test_a_reader_that_closes_stdout_at_once_gets_the_commands_own_exit_code(argv, code):
    import subprocess
    import sys
    from pathlib import Path

    import flagtke

    src = str(Path(flagtke.__file__).resolve().parent.parent)
    proc = subprocess.Popen([sys.executable, "-c", _FAILING_CROSS, src, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the command writes a byte
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == code
    finally:
        proc.stderr.close()
        proc.kill()
    assert err == b""


# ---------------------------------------------------------------------------
# serialization contract


ALL_JSON_CASES = (
    ("roots", "E6"),
    ("flag", "A3", "--complement", "2,3"),
    ("tke", "A3", "--complement", "2,3", "--beta", "5/2,1"),
    ("tke", "A1", "--theta", "", "--beta", "2"),
    ("grlb", "B3", "--theta", "2,3", "--xi", "4/3"),
    ("volume", "A2", "--theta", "", "--xi", "1,2"),
    ("report", "C3", "--complement", "1,3", "--xi", "2,5/3"),
    ("sweep", "--max-rank", "2", "--samples", "2"),
    ("table", "--family", "II", "--max-rank", "6"),
)


@pytest.mark.parametrize("argv", ALL_JSON_CASES, ids=lambda a: a[0])
def test_every_command_validates_against_schema(capsys, schema, argv):
    code, doc, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    jsonschema.validate(doc, schema)
    assert set(doc) == {"command", "input", "result", "warnings"}


def test_rational_fields_match_pattern(capsys):
    _, doc, _ = run_json(capsys, "tke", "A3", "--complement", "2,3", "--beta", "5/2,1")
    for v in doc["result"]["metric"] + list(doc["result"]["margins"].values()):
        assert RATIONAL.match(v)
    _, doc, _ = run_json(capsys, "report", "A2", "--theta", "", "--xi", "1,1")
    for key in ("grlb", "volume", "r_pow_vol", "degree", "snow_bound"):
        assert RATIONAL.match(doc["result"][key])


def test_json_is_canonical(capsys):
    _, out, _ = run(capsys, "flag", "A3", "--complement", "2,3", "--json")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_byte_identical_across_runs(capsys):
    argvs = [
        ("report", "D4", "--complement", "1,3", "--xi", "2,3/2", "--json"),
        ("sweep", "--max-rank", "2", "--seed", "9", "--json"),
        ("table", "--max-rank", "5", "--json"),
    ]
    for argv in argvs:
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_out_file_carries_json_even_in_text_mode(capsys, tmp_path):
    target = tmp_path / "doc.json"
    code, out, _ = run(
        capsys, "volume", "A2", "--theta", "2", "--xi", "3", "--out", str(target)
    )
    assert code == EXIT_OK
    assert "volume: 9" in out  # stdout stays text
    on_disk = target.read_text(encoding="utf-8")
    _, json_out, _ = run(capsys, "volume", "A2", "--theta", "2", "--xi", "3", "--json")
    assert on_disk == json_out


@pytest.mark.parametrize("argv", [
    ("table",),
    ("report", "D4", "--complement", "1,3", "--xi", "2,3/2"),
    ("roots", "G2"),
])
def test_text_output_never_serializes_the_envelope(capsys, monkeypatch, tmp_path, argv):
    # the envelope is built only for --json or --out, so text needs no encoder
    target = tmp_path / "doc.json"
    code, text, _ = run(capsys, *argv, "--out", str(target))
    assert code == EXIT_OK
    _, json_out, _ = run(capsys, *argv, "--json")
    assert target.read_bytes() == json_out.encode("utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("iterencode called")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    assert run(capsys, *argv)[:2] == (EXIT_OK, text)
    with pytest.raises(AssertionError, match="iterencode called"):
        main([*argv, "--json"])
    capsys.readouterr()


@pytest.mark.parametrize("argv", [("table",), ("roots", "D32")], ids=" ".join)
def test_json_and_out_together_write_one_document_twice(capsys, tmp_path, argv):
    target = tmp_path / "doc.json"
    code, both, _ = run(capsys, *argv, "--json", "--out", str(target))
    assert code == EXIT_OK
    _, alone, _ = run(capsys, *argv, "--json")
    assert len(alone) > 100_000  # a document of many encoder chunks
    assert target.read_bytes() == both.encode("utf-8") == alone.encode("utf-8")


def test_json_and_out_together_encode_the_envelope_once(monkeypatch, tmp_path):
    # one encoding serves both targets, and the file is whole before the
    # first chunk reaches stdout
    import io
    import sys

    target = tmp_path / "doc.json"
    calls = []
    iterencode = json.JSONEncoder.iterencode
    monkeypatch.setattr(json.JSONEncoder, "iterencode",
                        lambda self, *a, **k: calls.append(a) or iterencode(self, *a, **k))

    class Probe(io.StringIO):
        file_at_first_write = None

        def write(self, text: str) -> int:
            if self.file_at_first_write is None:
                self.file_at_first_write = target.read_text(encoding="utf-8")
            return super().write(text)

    stdout = Probe()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["roots", "D32", "--json", "--out", str(target)]) == EXIT_OK
    assert len(calls) == 1
    out = stdout.getvalue()
    assert len(out) > 300_000
    assert stdout.file_at_first_write == target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("argv, renderer", [
    (("roots", "G2", "--json"), "_root_text"),
    (("report", "D4", "--complement", "1,3", "--xi", "2,3/2", "--json"), "_q_text"),
    (("table",), "_fields_of"),  # builds the table's row dicts
], ids=lambda a: " ".join(a) if isinstance(a, tuple) else a)
def test_a_command_builds_only_the_form_it_prints(capsys, monkeypatch, argv, renderer):
    expected = run(capsys, *argv)[:2]

    def refuse(*args, **kwargs):
        raise AssertionError(f"{renderer} called")

    monkeypatch.setattr(f"flagtke.cli.{renderer}", refuse)
    assert run(capsys, *argv)[:2] == expected


def test_a_large_envelope_is_streamed_not_held_whole(monkeypatch):
    # roots D32 --json prints 369 KB.  Joined into one string first, the
    # envelope held about 8 times that at its peak; streamed, with the
    # root system's own tuples in the result, it holds a small fraction.
    import io
    import sys
    import tracemalloc

    class Sink(io.TextIOBase):
        chars = 0

        def write(self, text: str) -> int:
            self.chars += len(text)
            return len(text)

    argv = ["roots", "D32", "--json"]
    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(argv) == EXIT_OK  # warm: the root system, the parser, the json module
    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert sink.chars > 300_000
    assert peak < sink.chars / 4, (peak, sink.chars)  # no whole copy of the document


def test_out_into_missing_directory_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    for path in (str(target), ""):  # an empty path opens no file either
        code, out, err = run(capsys, "flag", "A3", "--theta", "1", "--out", path)
        assert code == EXIT_USAGE, path
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert out == ""
    assert not target.exists()


def test_internal_verification_error_is_one_line_exit_one(capsys, monkeypatch):
    monkeypatch.setattr("flagtke.cli.volume_cross_check", lambda p, xi: Fraction(-1))
    code, out, err = run(capsys, "volume", "A2", "--theta", "", "--xi", "1,2")
    assert code == EXIT_VERIFY
    assert err.startswith("error: volume routes disagree") and err.count("\n") == 1
    assert "Traceback" not in err
    assert out == ""


def test_a_failed_flag_sanity_net_is_one_line_exit_one(capsys, monkeypatch):
    rs = RootSystem("A3")  # uncached, so the shared cache entry stays sound
    object.__setattr__(rs, "_two_rho", (0, 0, 0))
    monkeypatch.setattr("flagtke.flag.build_root_system", lambda lie_type: rs)
    code, out, err = run(capsys, "flag", "A3", "--theta", "")
    assert code == EXIT_VERIFY
    assert err == "error: anticanonical pairing at complement node 1 is 0, expected > 0\n"
    assert out == ""


def test_units_raw_annotates_but_does_not_rescale(capsys):
    _, plain, _ = run(capsys, "flag", "A3", "--complement", "2,3")
    _, raw, _ = run(capsys, "flag", "A3", "--complement", "2,3", "--units", "raw")
    assert "koszul: [3, 2]" in plain and "* 2pi" not in plain
    assert "koszul: [3, 2] * 2pi" in raw
    _, vol_raw, _ = run(
        capsys, "volume", "A2", "--theta", "2", "--xi", "3", "--units", "raw"
    )
    assert "volume: 9 * (2pi)^2" in vol_raw
    _, doc_plain, _ = run_json(capsys, "volume", "A2", "--theta", "2", "--xi", "3")
    _, doc_raw, _ = run_json(
        capsys, "volume", "A2", "--theta", "2", "--xi", "3", "--units", "raw"
    )
    assert doc_plain["result"] == doc_raw["result"]
    assert doc_raw["input"]["units"] == "raw"


def test_console_script_entry_point_is_exposed():
    import flagtke.cli as cli

    assert callable(cli.main)


def test_result_shape_is_typed_per_command(capsys, schema):
    _, doc, _ = run_json(capsys, "flag", "A3", "--complement", "2,3")
    jsonschema.validate(doc, schema)
    bad = [
        {**doc, "result": {**doc["result"], "extra": 1}},
        {**doc, "result": {k: v for k, v in doc["result"].items() if k != "degree"}},
        {**doc, "result": {**doc["result"], "degree": 4500}},
        {**doc, "command": "volume"},
    ]
    for d in bad:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(d, schema)


# ---------------------------------------------------------------------------
# work per command and rank limits


def test_report_computes_grlb_and_volume_once(capsys, monkeypatch):
    import flagtke.invariants as inv
    from flagtke.flag import ParabolicData

    calls = {"grlb_report": 0, "volume_class": 0, "passes": 0}

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)

        return wrapper

    # volume_bound_report looks both up in its module
    for name in ("grlb_report", "volume_class"):
        monkeypatch.setattr(inv, name, counted(name, getattr(inv, name)))
    # every pass that pairs a class with the radical coroots
    monkeypatch.setattr(ParabolicData, "_pairings",
                        counted("passes", ParabolicData._pairings))
    code, out, _ = run(capsys, "report", "E8", "--theta", "", "--xi", "1,2,3,4,5,6,7,8")
    assert code == EXIT_OK
    assert "bound chain:" in out
    assert calls == {"grlb_report": 1, "volume_class": 1, "passes": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ("flag", "A200", "--theta", ""),
        ("roots", "D33"),
        ("report", "B40", "--theta", "", "--xi", "1"),
        ("sweep", "--max-rank", "30"),
        ("sweep", "--max-rank", "9", "--json"),
        ("table", "--max-rank", "33"),
        ("table", "--json", "--max-rank", "33"),
    ],
    ids=lambda a: " ".join(a[:3]),
)
def test_rank_limits_reject_before_any_root_system(capsys, monkeypatch, argv):
    assert_usage_error_before_any_root_system(capsys, monkeypatch, argv)


def assert_usage_error_before_any_root_system(capsys, monkeypatch, argv):
    def refuse(*_):
        raise AssertionError("build_root_system called past an input limit")

    for module in ("flagtke.rootsys", "flagtke.flag", "flagtke.cli"):
        monkeypatch.setattr(f"{module}.build_root_system", refuse)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_rank_limits_admit_the_largest_allowed_rank(capsys):
    from flagtke.cli import MAX_SWEEP_RANK, MAX_TYPE_RANK

    assert (MAX_TYPE_RANK, MAX_SWEEP_RANK) == (32, 8)
    code, doc, _ = run_json(capsys, "flag", "A32", "--complement", "1")
    assert code == EXIT_OK
    assert doc["result"]["dim"] == 32


@pytest.mark.parametrize("samples", ["101", "99999999999999999999"])
def test_sweep_samples_above_the_limit_reject_before_any_root_system(capsys, monkeypatch,
                                                                    samples):
    # without the bound the second runs until it is killed
    argv = ("sweep", "--max-rank", "1", "--samples", samples)
    assert_usage_error_before_any_root_system(capsys, monkeypatch, argv)
    assert run(capsys, *argv) == (EXIT_USAGE, "",
                                  f"error: --samples {samples} is above the sweep limit 100\n")


def test_sweep_samples_limit_is_accepted(capsys):
    from flagtke.cli import MAX_SWEEP_SAMPLES

    assert MAX_SWEEP_SAMPLES == 100
    code, doc, _ = run_json(capsys, "sweep", "--max-rank", "1", "--samples", "100")
    assert code == EXIT_OK and doc["result"]["samples"] == 100 and doc["result"]["ok"]


@pytest.mark.parametrize("digits", [0, -5, MAX_DIGITS + 1])
def test_digits_outside_the_range_reject_before_any_root_system(capsys, monkeypatch, digits):
    argv = ("grlb", "A2", "--theta", "2", "--xi", "7", f"--digits={digits}")
    assert_usage_error_before_any_root_system(capsys, monkeypatch, argv)


def test_digits_limit_is_accepted(capsys):
    assert MAX_DIGITS == 1000
    code, out, err = run(capsys, "grlb", "A2", "--theta", "2", "--xi", "7",
                         "--digits", str(MAX_DIGITS))
    assert (code, err) == (EXIT_OK, "")
    hint = re.search(r"3/7 \(~0\.([0-9]+)\)", out).group(1)
    assert len(hint) == MAX_DIGITS and hint.startswith("428571")


def test_answers_beyond_the_int_string_limit_are_printed_in_full(capsys):
    import sys

    from flagtke import parabolic, volume_class

    xi = ",".join(["1e40"] * 8)
    limit = sys.get_int_max_str_digits()
    code, doc, err = run_json(capsys, "volume", "E8", "--theta", "", "--xi", xi)
    assert (code, err) == (EXIT_OK, "")
    assert sys.get_int_max_str_digits() == limit  # restored when main returns
    code, out, _ = run(capsys, "report", "E8", "--theta", "", "--xi", xi)
    assert code == EXIT_OK
    expected = volume_class(parabolic("E8", ()), [Fraction(10**40)] * 8)
    assert expected.numerator > 10**4300  # past CPython's default digit limit
    sys.set_int_max_str_digits(0)  # to parse and print the answer here
    try:
        assert Fraction(doc["result"]["volume"]) == expected
        assert f"volume: {expected} (~" in out
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv",
    [
        ("volume", "A2", "--theta", "", "--xi", "1" * 101),
        ("grlb", "A1", "--theta", "", "--xi", "1e301"),
        ("tke", "A1", "--theta", "", "--beta=1e-3000000"),
        ("report", "B3", "--theta", "", "--xi", "1E+1_000,1,1", "--json"),
    ],
    ids=["long", "exponent", "negative-exponent", "underscored-exponent"],
)
def test_oversized_rational_tokens_are_one_line_usage_errors(capsys, monkeypatch, argv):
    # the size bounds are the CLI's own and run before the library's
    # spelling rule, which parses
    def refuse(*_):
        raise AssertionError("the spelling rule read a token past the input bounds")

    monkeypatch.setattr("flagtke.cli._exact_coordinate", refuse)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "sys." not in err and "4300" not in err


@pytest.mark.parametrize(
    ("argv", "token"),
    [
        (("grlb", "A1", "--theta", "", "--xi", "1_0"), "1_0"),
        (("grlb", "A1", "--theta", "", "--xi", "\u0663"), "\u0663"),
        (("volume", "A2", "--theta", "", "--xi", "1,\uff12/3"), "1,\uff12/3"),
        (("tke", "A1", "--theta", "", "--beta", "1_000/3"), "1_000/3"),
    ],
    ids=["underscore", "arabic-indic", "fullwidth", "underscored-beta"],
)
def test_rational_tokens_read_alike_on_every_interpreter(capsys, argv, token):
    # Fraction reads "1_0" from CPython 3.11 on, and non-ASCII digits on
    # every version; the CLI takes neither, on any version
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.endswith(f"expected comma-separated rationals like 2,5/3, got {token!r}\n")


@pytest.mark.parametrize(("tok", "value"), [
    ("1_0", None), ("\u0661", None), ("1/0", None), ("2/4", Fraction(1, 2)),
    ("-3", Fraction(-3)), ("1e2", Fraction(100)), ("0.5", Fraction(1, 2)),
    ("abc", None), ("1/2/3", None), ("nan", None),
])
def test_a_class_option_and_a_class_read_a_token_alike(tok, value):
    # one spelling rule, flag._exact_coordinate, for both; None: both refuse
    import argparse

    from flagtke.cli import _rationals_arg
    from flagtke.flag import CohomologyClass

    if value is None:
        with pytest.raises(argparse.ArgumentTypeError):
            _rationals_arg(tok)
        with pytest.raises(ValueError):
            CohomologyClass((tok,))
    else:
        assert _rationals_arg(tok) == CohomologyClass((tok,)).coords == (value,)


def test_rational_tokens_at_the_bounds_are_accepted(capsys):
    from flagtke.cli import MAX_RATIONAL_CHARS, MAX_RATIONAL_EXPONENT

    assert (MAX_RATIONAL_CHARS, MAX_RATIONAL_EXPONENT) == (100, 300)
    longest = "7" * 95 + "e-300"
    assert len(longest) == MAX_RATIONAL_CHARS
    code, doc, _ = run_json(capsys, "volume", "A2", "--theta", "", "--xi", f"{longest},1e300")
    assert code == EXIT_OK
    assert doc["input"]["xi"] == [str(Fraction(longest)), str(10**300)]
