import argparse
import hashlib
import json
import time

import pytest

from forced_pool import force_pool
from pinned_outputs import (
    CHARACTER_ACCEPTED_SHA256,
    CHARACTER_REFUSALS,
    CHECK_11A3_D181,
    CHECK_26_D5,
    CHECK_PINS,
    CLASSGROUP_SHA256,
    EXPLAIN_ARGS,
    EXPLAIN_SHA256,
    FACTOR_SHAPE_ARGS,
    FACTOR_SHAPE_CURVES,
    FACTOR_SHAPE_GRID_BOUNDS,
    FACTOR_SHAPE_GRID_ELLS,
    FACTOR_SHAPE_GRID_SHA256,
    FACTOR_SHAPE_SHA256,
    RAYCLASS_ARGS,
    RAYCLASS_SHA256,
    SEARCH_26_CSV,
    SEARCH_FORMAT_PINS,
    SEARCH_FORMAT_RANGE,
    TORSION_FIELD_FACTOR,
    TORSION_FIELD_SHA256,
)
from twistsel import cli, divpoly, intmath, search
from twistsel.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--curve", "[0,-1,1,0,0]")
    assert code == 0
    payload = json.loads(out)
    assert payload["disc"] == "-11" and payload["j"] == "-4096/11"


def test_local(capsys):
    code, out, _ = run_cli(capsys, "local", "--curve", "[0,-1,1,0,0]", "--p", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "MultiplicativeSplit" and payload["kodaira"] == "I1"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("p", ["2", "3"])
def test_local_reads_the_minimal_model_of_a_scaled_curve(capsys, p, fmt):
    # 11a3 scaled by u = 2 is not minimal at 2; local runs Tate's algorithm on
    # the minimal model of the curve it is given, so both print the same bytes
    same = [
        run_cli(capsys, "local", "--curve", curve, "--p", p, "--format", fmt)
        for curve in ("[0,-1,1,0,0]", "[0,-4,8,0,0]")
    ]
    assert same[0] == same[1] and same[0][0] == 0 and same[0][1]


@pytest.mark.parametrize(
    "argv",
    [
        ["local", "--curve", "[0,-1,1,0,0]", "--p", "4"],
        ["local", "--curve", "[0,-1,1,0,0]", "--p", "1"],
        ["local", "--curve", "[0,-1,1,0,0]", "--p", "0"],
        ["local", "--curve", "[0,-1,1,0,0]", "--p", "-11"],
        ["invariants", "--curve", "[0,0,0,1/0,1]"],
    ],
    ids=["p-composite", "p-one", "p-zero", "p-negative", "curve-zero-denominator"],
)
def test_malformed_numbers_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "internal error" not in err, err


def test_poly_strings(capsys):
    """--factor reads a bracketed list of ints, the grammar of --d and --p."""
    assert cli._coefficients("[1,2,3]") == [1, 2, 3]
    assert cli._coefficients(" [ -1 , 0 ] ") == [-1, 0]
    assert cli._coefficients("[]") == []
    for text in ("1,2", "[1,2", "[1/0,1]", "[x,1]", "[1.5,1]", "[1e0,1]", "[0.0,1]", "[1,,2]"):
        with pytest.raises(argparse.ArgumentTypeError, match=r"expected \[c0,c1,\.\.\.\]"):
            cli._coefficients(text)
    # the library trims trailing zeros: [0,1,0] is the factor x, and [0,0] is zero
    args = ["torsion-field", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--factor"]
    assert run_cli(capsys, *args, "[0,1,0]") == run_cli(capsys, *args, "[0,1]")
    assert run_cli(capsys, *args, "[0,0]") == (1, "", "error: cannot factor the zero polynomial\n")


def test_conductor(capsys):
    code, out, _ = run_cli(capsys, "conductor", "--curve", "[0,0,0,1,0]")
    assert code == 0
    assert json.loads(out)["N"] == 64


def test_torsion(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--curve", "[0,-1,1,0,0]", "--ell", "5")
    assert code == 0 and json.loads(out)["point"] == "(0,0)"
    code2, out2, _ = run_cli(capsys, "torsion", "--curve", "[0,0,0,0,1]", "--ell", "5")
    assert code2 == 2 and json.loads(out2)["point"] is None


def test_divpoly(capsys):
    code, out, _ = run_cli(capsys, "divpoly", "--curve", "[0,0,0,2,3]", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["-4", "36", "12", "0", "3"]


def test_factor_shape(capsys):
    code, out, _ = run_cli(
        capsys, "factor-shape", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--degree-bound", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residual_degree"] == 10
    assert sorted(f["degree"] for f in payload["factors"]) == [1, 1]


def test_torsion_field(capsys):
    code, out, _ = run_cli(
        capsys, "torsion-field", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--factor", "[0,1]"
    )
    assert code == 0
    assert json.loads(out)["degree"] == 1


def test_factor_shapes_and_tower_are_pinned(capsys):
    outs = []
    for curve in FACTOR_SHAPE_CURVES:
        for ell, bound in FACTOR_SHAPE_ARGS:
            code, out, _ = run_cli(
                capsys, "factor-shape", "--curve", curve, "--ell", str(ell),
                "--degree-bound", str(bound),
            )
            assert code == 0
            outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == FACTOR_SHAPE_SHA256
    code, out, _ = run_cli(
        capsys, "torsion-field", "--curve", "[1,-1,1,-3,3]", "--ell", "5",
        "--factor", TORSION_FIELD_FACTOR,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TORSION_FIELD_SHA256


def test_factor_shape_grid_is_pinned(capsys):
    outs = []
    for curve in FACTOR_SHAPE_CURVES:
        for ell in FACTOR_SHAPE_GRID_ELLS:
            for bound in FACTOR_SHAPE_GRID_BOUNDS:
                code, out, _ = run_cli(
                    capsys, "factor-shape", "--curve", curve, "--ell", str(ell),
                    "--degree-bound", str(bound),
                )
                assert code == 0
                outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == FACTOR_SHAPE_GRID_SHA256


def test_classgroup(capsys):
    code, out, _ = run_cli(capsys, "classgroup", "--D", "-20")
    assert code == 0
    assert out.strip() == '{"D":-20,"h":2,"structure":[2]}'


def test_classgroup_is_pinned(capsys, monkeypatch):
    parser = cli.build_parser()  # one parser for all calls: building it dominates a call
    monkeypatch.setattr(cli, "build_parser", lambda command: parser)
    digest = hashlib.sha256()
    for D in range(-3, -3001, -1):
        code, out, _ = run_cli(capsys, "classgroup", "--D", str(D))
        digest.update(f"{code}:{out}".encode())
    assert digest.hexdigest() == CLASSGROUP_SHA256


def test_classgroup_refuses_past_the_ceiling(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classgroup", "--D", "-4000000000004")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert "ceiling" in err


def test_rayclass(capsys):
    code, out, _ = run_cli(capsys, "rayclass", "--d", "-5", "--s", "11", "--ell", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ray_class_number"] == 120 and payload["ell_rank"] == 1


def test_rayclass_refuses_only_the_fields_with_more_units(capsys):
    # d = -2 has units +-1 only and takes a modulus; d = -1 and d = -3 do not
    code, out, _ = run_cli(capsys, "rayclass", "--d", "-2", "--s", "3", "--ell", "5")
    payload = json.loads(out)
    assert code == 0 and payload["D"] == -8 and payload["ray_class_number"] == 2
    for d in ("-1", "-3"):
        code, _, err = run_cli(capsys, "rayclass", "--d", d, "--s", "7", "--ell", "5")
        assert code == 2 and "nontrivial units" in err
    # a bad d is refused before a bad ell or modulus entry
    code, _, err = run_cli(capsys, "rayclass", "--d", "-4", "--s", "4", "--ell", "4")
    assert (code, err) == (2, "error: d must be a negative squarefree integer\n")


def test_rayclass_is_pinned(capsys, monkeypatch):
    parser = cli.build_parser()  # one parser for all calls: building it dominates a call
    monkeypatch.setattr(cli, "build_parser", lambda command: parser)
    digest = hashlib.sha256()
    for ell, s in RAYCLASS_ARGS:
        for d in range(-5, -1501, -1):
            code, out, err = run_cli(
                capsys, "rayclass", "--d", str(d), "--s", s, "--ell", str(ell), "--format", "json"
            )
            digest.update(f"{code}:{out}:{err}".encode())
    assert digest.hexdigest() == RAYCLASS_SHA256


def test_check_admissible(capsys):
    code, out, _ = run_cli(capsys, "check", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d", "-37")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "Admissible"
    assert payload["verdict"] == "SelmerTrivial"
    assert payload["bounds"] == [1, 1]


def test_check_no_torsion_exit_2(capsys):
    code, out, _ = run_cli(capsys, "check", "--curve", "[0,0,0,0,1]", "--ell", "5", "--d", "-37")
    assert code == 2


def test_ell_past_the_division_polynomial_limit_gets_the_torsion_verdict(capsys, monkeypatch):
    # Mazur: no rational point of prime order 41, so psi_41 is never built
    def refuse(E, n):
        raise AssertionError(f"psi_{n} built")

    monkeypatch.setattr(divpoly, "division_poly_primitive", refuse)
    curve = ("--curve", "[0,-1,1,0,0]", "--ell", "41")
    code, out, err = run_cli(capsys, "check", *curve, "--d", "-7")
    assert (code, err) == (2, "")
    assert out == (
        '{"checks":[{"cite":"rational point of odd prime order 41","detail":'
        '"no rational point has prime order 41 > 7 (Mazur); psi_41 is not built",'
        '"id":"hypothesis.torsion","pass":false}],"curve":"[0,-1,1,0,0]","ell":41,'
        '"ok":false,"torsion_point":null}\n'
    )
    assert run_cli(capsys, "search", *curve, "--range=-100:-3") == (
        2, "", "error: curve-level hypotheses fail: hypothesis.torsion (fail)\n"
    )
    assert run_cli(capsys, "torsion", *curve) == (2, '{"ell":41,"point":null}\n', "")
    assert run_cli(capsys, "divpoly", "--curve", "[0,-1,1,0,0]", "--n", "41") == (
        2, "", "error: division polynomial index must lie in [1, 40]\n"
    )


def test_check_at_13_builds_no_division_polynomial(capsys, monkeypatch):
    # Mazur: no rational point has prime order 13, so psi_13 is neither built nor factored
    def refuse(*args):
        raise AssertionError("psi_13 built or factored")

    monkeypatch.setattr(divpoly, "division_poly_primitive", refuse)
    monkeypatch.setattr(divpoly, "zx_factor_bounded", refuse)
    for curve in ("[0,-1,1,0,0]", "[0,0,0,13674069,324405221670]"):
        code, out, err = run_cli(capsys, "check", "--curve", curve, "--ell", "13", "--d", "-7")
        assert (code, err) == (2, "")
        assert json.loads(out)["checks"] == [{
            "cite": "rational point of odd prime order 13",
            "detail": "no rational point has prime order 13 > 7 (Mazur); psi_13 is not built",
            "id": "hypothesis.torsion",
            "pass": False,
        }]


def test_check_inadmissible(capsys):
    code, out, _ = run_cli(capsys, "check", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d", "-13")
    assert code == 0
    assert json.loads(out)["overall"] == "Inadmissible"


def test_search_csv(capsys, monkeypatch):
    handed = force_pool(monkeypatch)
    code, out, _ = run_cli(
        capsys, "search", "--curve", "[0,-1,1,0,0]", "--ell", "5",
        "--range=-60:-3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,D,h,ell_rank,selmer_lb,verdict,failed_clauses"
    assert any(line.startswith("-37,-148,2,0,1,SelmerTrivial") for line in lines)
    # S_E = {13}: the ray-class connecting map in every row, serial and pooled
    for jobs in ("1", "2"):
        code, out, _ = run_cli(
            capsys, "search", "--curve", "[1,-1,1,-3,3]", "--ell", "7",
            "--range=-120:-3", "--format", "csv", "--jobs", jobs,
        )
        assert code == 0
        assert out == SEARCH_26_CSV
    assert len(handed) == 1


def test_search_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "search", "--curve", "[0,-1,1,0,0]", "--ell", "5",
            "--range=-60:-3", "--jobs", jobs,
        )
        assert (code, out) == (1, "")
        assert "jobs must be at least 1" in err


def test_search_refuses_an_over_wide_range(capsys):
    # one value of d past the ceiling: refused before the sieve allocates
    lo = -3 - search.MAX_SCAN_WIDTH
    code, out, err = run_cli(
        capsys, "search", "--curve", "[0,-1,1,0,0]", "--ell", "5", f"--range={lo}:-3"
    )
    assert (code, out) == (1, "")
    assert err == f"error: a scan takes at most {search.MAX_SCAN_WIDTH} values of d\n"


@pytest.mark.parametrize("curve", ["[0,-1,1,0,0]", "[0,0,0,0,1]"])
def test_bad_d_and_range_get_one_answer_whatever_the_curve(capsys, curve):
    # [0,0,0,0,1] fails the curve-level hypotheses at ell = 5; the twist
    # parameter and the range are refused before those are looked at
    width, deepest = search.MAX_SCAN_WIDTH, search.MAX_SCAN_ABS_D
    for argv, err in (
        (["check", "--d=0"], "error: twist parameter must be a nonzero integer\n"),
        (["search", "--range=1:5"], "error: need lo <= hi < 0\n"),
        (["search", "--range=-3:-20"], "error: need lo <= hi < 0\n"),
        (
            ["search", f"--range={-3 - width}:-3"],
            f"error: a scan takes at most {width} values of d\n",
        ),
        (
            ["search", f"--range={-1 - deepest}:{-deepest + 399}"],
            f"error: a scan takes no d below -{deepest}\n",
        ),
    ):
        argv = [argv[0], "--curve", curve, "--ell", "5", *argv[1:]]
        assert run_cli(capsys, *argv) == (1, "", err), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--range", "-10"],
        ["search", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--range", "a:b"],
        ["rayclass", "--d", "-5", "--ell", "5", "--s", "11,x"],
        ["rayclass", "--d", "-5", "--ell", "5", "--s", "11,,13"],
        ["check", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d", "-37", "--character", "25"],
        ["check", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d", "-37", "--character", "25:x"],
        ["torsion-field", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--factor", "[1/0,1]"],
        ["torsion-field", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--factor", "[x,1]"],
        ["torsion-field", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--factor", "[1e0,1]"],
        ["torsion-field", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--factor", "[0.0,1]"],
    ],
    ids=["range-one-bound", "range-not-int", "s-not-int", "s-empty-entry", "character-no-colon",
         "character-not-int", "factor-zero-denominator", "factor-not-a-number", "factor-exponent",
         "factor-decimal-point"],
)
def test_malformed_list_options_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: twistsel ") and "expected " in err, err
    assert "internal error" not in err


def test_explain_csv_is_pinned(capsys):
    for (curve, ell, rng, character), want in zip(EXPLAIN_ARGS, EXPLAIN_SHA256):
        argv = ["search", "--curve", curve, "--ell", ell, f"--range={rng}", "--explain",
                "--format", "csv"]
        if character is not None:
            argv += ["--character", character]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


def test_search_formats_are_pinned(capsys):
    for curve, ell, fmt, mode, explain, want in SEARCH_FORMAT_PINS:
        argv = ["search", "--curve", curve, "--ell", ell, f"--range={SEARCH_FORMAT_RANGE}",
                "--format", fmt, "--mode", mode] + (["--explain"] if explain else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


def test_check_outputs_and_exit_codes_are_pinned(capsys):
    for curve, ell, d, fmt, exit_code, want in CHECK_PINS:
        argv = ["check", "--curve", curve, "--ell", ell, f"--d={d}", "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (exit_code, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv
    # the undetermined bound of curve 26 at d = -1 names its reason
    out = run_cli(capsys, "check", "--curve", "[1,-1,1,-3,3]", "--ell", "7", "--d=-1")[1]
    payload = json.loads(out)
    assert payload["ray_rank"] is None and payload["selmer_lower_bound"] is None
    assert payload["undetermined_reason"].startswith("nontrivial units")


def test_search_names_each_unmet_hypothesis_with_its_verdict(capsys):
    # check exits 2 on the first curve and 3 on the second; search refuses
    # both with exit 2, saying which clause fails and which is undetermined
    for curve, unmet in (
        ("[0,0,0,0,1]", "hypothesis.torsion (fail)"),
        ("[1,1,1,-3,1]", "hypothesis.ordinary (undetermined)"),
    ):
        argv = ["search", "--curve", curve, "--ell", "5", "--range=-100:-3"]
        assert run_cli(capsys, *argv) == (
            2, "", f"error: curve-level hypotheses fail: {unmet}\n"
        ), curve


def test_csv_is_a_format_of_search_only(capsys):
    # only search writes CSV; every other subcommand refuses it as a usage error
    for name in cli.COMMANDS:
        code, out, err = run_cli(capsys, name, "--format", "csv")
        assert code == 1 and out == "", name
        if name == "search":
            assert "invalid choice" not in err, err
        elif name == "verify-paper-examples":
            assert "unrecognized arguments: --format csv" in err, err
        else:
            assert "argument --format: invalid choice: 'csv'" in err, err
    code, out, err = run_cli(
        capsys, "check", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d=-37", "--format", "csv"
    )
    assert (code, out) == (1, "") and err.startswith("usage: twistsel check "), err


def test_character_outcomes_are_pinned(capsys):
    argv = ["check", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d", "-37", "--character"]
    for spec, err in CHARACTER_REFUSALS:
        assert run_cli(capsys, *argv, spec) == (1, "", err), spec
    for spec, want in CHARACTER_ACCEPTED_SHA256:
        code, out, err = run_cli(capsys, *argv, spec)
        assert (code, err) == (0, ""), spec
        assert hashlib.sha256(out.encode()).hexdigest() == want, spec


def test_byte_stable_json(capsys):
    a = run_cli(capsys, "check", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d", "-37")[1]
    b = run_cli(capsys, "check", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d", "-37")[1]
    assert a == b
    for curve, ell, d, want in (
        ("[1,-1,1,-3,3]", "7", "-5", CHECK_26_D5),
        ("[0,-1,1,0,0]", "5", "-181", CHECK_11A3_D181),
    ):
        code, out, _ = run_cli(capsys, "check", "--curve", curve, "--ell", ell, "--d", d)
        assert code == 0
        assert out == want + "\n"


def test_check_gives_up_on_a_hard_to_factor_d(capsys):
    # d is the product of the least primes above 10^30 and 10^31: Brent rho
    # cannot split it within its work cap, so check reports a resource error
    d = "-10000000000000000000000000000603000000000000000000000000001881"
    code, out, err = run_cli(capsys, "check", "--curve", "[0,-1,1,0,0]", "--ell", "5", f"--d={d}")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "work cap" in err


@pytest.mark.parametrize(
    "d, failing",
    [
        ("10000000000000000000000000000603000000000000000000000000001881", "domain.negative"),
        ("-20000000000000000000000000001206000000000000000000000000003762", "domain.congruence"),
    ],
)
def test_check_decides_a_hard_to_factor_d_that_fails_another_domain_clause(
    capsys, monkeypatch, d, failing
):
    # d positive, or 2 mod 4: d is inadmissible whether or not it is squarefree,
    # so the factoring cap leaves that one clause undetermined, not the verdict
    monkeypatch.setattr(intmath, "_RHO_STEPS", 2**8)
    code, out, err = run_cli(
        capsys, "check", "--curve", "[0,-1,1,0,0]", "--ell", "5", f"--d={d}", "--format", "json"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    clauses = {c["id"]: c for c in report["clauses"]}
    assert list(clauses)[:4] == [
        "domain.negative", "domain.squarefree", "domain.congruence", "domain.coprime"
    ]
    assert clauses[failing]["pass"] is False
    assert clauses["domain.squarefree"]["pass"] is None
    assert "work cap" in clauses["domain.squarefree"]["detail"]
    assert report["overall"] == "Inadmissible"


def test_check_rejects_a_square_d_without_factoring_its_root(capsys):
    # |d| = (10^170 + 1)^2: the perfect-power root shows at once, so d is not
    # squarefree although rho could not factor 10^170 + 1 within its cap
    d = -((10**170 + 1) ** 2)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "check", "--curve", "[0,-1,1,0,0]", "--ell", "5", f"--d={d}", "--format", "json"
    )
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""
    report = json.loads(out)
    clauses = {c["id"]: c["pass"] for c in report["clauses"]}
    assert clauses["domain.squarefree"] is False
    assert report["overall"] == "Inadmissible"


def test_cli_matches_library(capsys):
    # the CLI must be a thin adapter over the library calls
    from twistsel.checker import admissibility_check, corollary_sandwich, selmer_lower_bound
    from twistsel.curves import CurveQ

    E = CurveQ(0, -1, 1, 0, 0)
    _code, out, _ = run_cli(capsys, "check", "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d", "-181")
    payload = json.loads(out)
    rep = admissibility_check(E, 5, -181)
    assert payload["overall"] == rep.overall.value
    sb = selmer_lower_bound(E, 5, -181)
    assert payload["selmer_lower_bound"] == sb.bound
    cs = corollary_sandwich(E, 5, -181)
    assert payload["verdict"] == cs.verdict.value
    assert payload["bounds"] == [cs.lower, cs.upper]


def _parse_outcome(parser, argv, capsys):
    """(exit code or parsed options, stdout, stderr) of one parse."""
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        outcome = exc.code
    else:
        outcome = sorted((k, getattr(v, "__name__", v)) for k, v in vars(ns).items())
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


def test_one_subcommand_parser_reads_as_the_full_one(capsys):
    # help, usage errors and parsed options of `twistsel NAME ...` are the same
    # from the one-subcommand parser as from the full one
    full = cli.build_parser()
    for name in cli.COMMANDS:
        narrow = cli.build_parser(name)
        for argv in (
            [name, "--help"],
            [name],
            [name, "--bogus"],
            [name, "--format", "xml"],
            [name, "extra"],
            [name, "--curve", "[0,-1,1,0,0]", "--ell", "5", "--d", "-37", "--D", "-20",
             "--p", "11", "--n", "3", "--factor", "[0,1]", "--range=-60:-3"],
        ):
            want = _parse_outcome(full, argv, capsys)
            assert _parse_outcome(narrow, argv, capsys) == want, argv
        assert _parse_outcome(narrow, [name, "--help"], capsys)[1].startswith(
            f"usage: twistsel {name} "
        )


def test_main_builds_only_the_chosen_subparser(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def recording(command):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", recording)
    assert main(["classgroup", "--D", "-20"]) == 0
    assert main(["frobnicate"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert built == ["classgroup", None, None]


def test_unknown_command_usage_error(capsys):
    code = main(["frobnicate"])
    assert code == 1


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify-paper-examples")
    assert code == 0
    lines = [line for line in out.strip().splitlines() if line]
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)
