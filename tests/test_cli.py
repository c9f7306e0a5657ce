from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path


def _run_cli(
    *args: str, env: dict | None = None, timeout: float | None = None
) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "gostrata.cli", *args],
        text=True,
        capture_output=True,
        check=False,
        env=env,
        timeout=timeout,
    )


def _write_datum(tmp_path: Path, f: int, e_split: bool, s_indices=()) -> Path:
    path = tmp_path / "datum.json"
    infty = sorted(["p1", i % f] for i in s_indices)
    n_other = len(infty) % 2
    path.write_text(
        json.dumps(
            {
                "primes": [{"id": "p1", "f": f, "e_split": e_split}],
                "S": {"infty": infty, "p": [], "n_other": n_other},
                "level": {},
            }
        ),
        encoding="utf-8",
    )
    return path


PAPER_LINK = {
    "n": 5,
    "source_nodes": [0, 2, 4],
    "target_nodes": [0, 2, 3],
    "disp": {"0": 3, "2": 3, "4": 3},
}


def test_strata_verb_reports_descriptor(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 4, False)
    proc = _run_cli("strata", "--datum", str(datum), "--T", "1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["S_of_T"]["infty"] == [["p1", 0], ["p1", 1]]
    assert payload["N"] == 1
    assert payload["cases"] == {"p1": "A1"}


def test_strata_verb_rejects_ramified_t(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 4, False, [1])
    proc = _run_cli("strata", "--datum", str(datum), "--T", "1")
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_strata_verb_names_the_same_place_under_any_hash_seed(tmp_path: Path) -> None:
    # both places of T lie in S_infty; the message names the first in order
    datum = _write_datum(tmp_path, 5, False, [0, 2])
    lines = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = _run_cli("strata", "--datum", str(datum), "--T", "0,2", env=env)
        _assert_one_line_error(proc, 1)
        lines.add(proc.stderr)
    assert lines == {"error: ArchPlace(prime_id='p1', i=0) lies in S_infty; "
                     "strata index only S-free embeddings\n"}


def test_strata_verb_refuses_a_huge_inertia_degree(tmp_path: Path) -> None:
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"primes": [{"id": "p1", "f": 1e9, "e_split": True}]}))
    proc = _run_cli("strata", "--datum", str(path), "--T", "1")
    _assert_one_line_error(proc, 1)
    assert "inertia degree must be <=" in proc.stderr


def test_a_huge_prime_is_a_usage_error_before_any_primality_test(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 3, True)
    huge = str(10**18 + 9)  # a prime; trial division would take minutes
    for argv in (
        ("ample", "--datum", str(datum), "--p", huge, "--t", "1,1,1"),
        ("picard", "--datum", str(datum), "--p", huge, "--matrix"),
        ("dieudonne", "--classify", "--seed", "1", "--p", huge, "--f", "2"),
    ):
        proc = _run_cli(*argv)
        _assert_one_line_error(proc, 2)
        assert "--p" in proc.stderr


def test_strata_table_quartic_has_sixteen_rows(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 4, False)
    proc = _run_cli("strata-table", "--datum", str(datum), "--format", "json")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert len(rows) == 16
    full = [row for row in rows if len(row["T"]) == 4]
    assert full == [
        {
            "T": ["p1:0", "p1:1", "p1:2", "p1:3"],
            "S_infty": ["p1:0", "p1:1", "p1:2", "p1:3"],
            "S_p": [],
            "N": 0,
            "level": {"p1": "iwahori"},
        }
    ]


def test_strata_table_is_deterministic(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 3, True, [0])
    first = _run_cli("strata-table", "--datum", str(datum))
    second = _run_cli("strata-table", "--datum", str(datum))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_link_validate_paper_figure(tmp_path: Path) -> None:
    path = tmp_path / "link.json"
    path.write_text(json.dumps(PAPER_LINK), encoding="utf-8")
    proc = _run_cli("link", "--validate", str(path))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["v"] == 9
    assert payload["problems"] == []


def test_link_validate_reports_crossing(tmp_path: Path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "n": 4,
                "source_nodes": [0, 1],
                "target_nodes": [1, 2],
                "disp": {"0": 2, "1": 0},
            }
        ),
        encoding="utf-8",
    )
    proc = _run_cli("link", "--validate", str(path))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["problems"]


def test_link_compose_adds_displacement(tmp_path: Path) -> None:
    forward = tmp_path / "forward.json"
    backward = tmp_path / "backward.json"
    forward.write_text(json.dumps(PAPER_LINK), encoding="utf-8")
    proc = _run_cli("link", "--invert", str(forward))
    assert proc.returncode == 0
    backward.write_text(proc.stdout, encoding="utf-8")
    proc = _run_cli("link", "--compose", str(forward), str(backward))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["v"] == 0


def test_link_frobenius(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 5, False, [1, 3])
    proc = _run_cli("link", "--frobenius", "--datum", str(datum))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["v"] == 3
    assert payload["disp"] == {"0": 1, "2": 1, "4": 1}


def test_link_standard_trivial_hecke(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 4, True, [1, 2])
    proc = _run_cli(
        "link",
        "--standard",
        "TrivialHecke",
        "--datum",
        str(datum),
        "--tau",
        "3",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["kind"] == "TrivialHecke"
    # the gap back from tau=3 over the two ramified spots is n_tau = 3
    assert payload["indentation"] == 2 * (4 - 3)


def test_link_standard_trivial_hecke_rejects_one_free_place(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 3, True, [0, 1])
    proc = _run_cli("link", "--standard", "TrivialHecke", "--datum", str(datum), "--tau", "2")
    _assert_one_line_error(proc, 1)
    assert "requires exactly the two unramified embeddings" in proc.stderr
    assert proc.stdout == ""


def test_ample_pass_and_fail(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 2, True)
    good = _run_cli("ample", "--datum", str(datum), "--p", "3", "--t", "1,1")
    assert good.returncode == 0
    assert json.loads(good.stdout)["status"] == "pass"
    bad = _run_cli("ample", "--datum", str(datum), "--p", "3", "--t", "5,1")
    assert bad.returncode == 1
    payload = json.loads(bad.stdout)
    assert payload["status"] == "fail"
    assert len(payload["violations"]) == 1


def test_ample_csv_cone(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 2, True)
    proc = _run_cli(
        "ample", "--datum", str(datum), "--p", "3", "--t", "1,1", "--format", "csv"
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "lhs,rhs",
        "3*t[p1:0],t[p1:1]",
        "3*t[p1:1],t[p1:0]",
    ]


def test_picard_matrix(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 2, True)
    proc = _run_cli("picard", "--datum", str(datum), "--p", "3", "--matrix")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["rows"] == [["-1", "3"], ["3", "-1"]]
    assert payload["determinant"] == "-8"


def test_picard_class_and_fiber_degree(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 2, True)
    proc = _run_cli("picard", "--datum", str(datum), "--p", "3", "--class", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coeffs"] == {"p1:0": "3", "p1:1": "-1"}
    proc = _run_cli(
        "picard", "--datum", str(datum), "--p", "3", "--fiber-degree", "1"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["self_fiber_degree"] == "-6"
    assert payload["normal_bundle"] == -6


def test_dieudonne_requires_seed() -> None:
    proc = _run_cli("dieudonne", "--roundtrip", "--p", "3", "--f", "2")
    assert proc.returncode == 2
    assert "--seed" in proc.stderr


def test_dieudonne_classify_is_seed_deterministic() -> None:
    first = _run_cli(
        "dieudonne", "--classify", "--seed", "5", "--p", "3", "--f", "2"
    )
    second = _run_cli(
        "dieudonne", "--classify", "--seed", "5", "--p", "3", "--f", "2"
    )
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    other = _run_cli(
        "dieudonne", "--classify", "--seed", "6", "--p", "3", "--f", "2"
    )
    assert json.loads(other.stdout).keys() == json.loads(first.stdout).keys()


def test_dieudonne_roundtrip_report() -> None:
    proc = _run_cli(
        "dieudonne",
        "--roundtrip",
        "--seed",
        "7",
        "--p",
        "3",
        "--f",
        "2",
        "--trials",
        "25",
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "25/25 roundtrips exact"


def test_dieudonne_twist_report() -> None:
    proc = _run_cli(
        "dieudonne",
        "--twist",
        "--seed",
        "9",
        "--p",
        "2",
        "--f",
        "3",
        "--inert",
        "--trials",
        "5",
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5/5 twists consistent"


def test_selftest_passes() -> None:
    proc = _run_cli("selftest")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert all(line.startswith("ok - ") for line in lines)
    assert len(lines) == 6


def test_selftest_quick_skips_roundtrips() -> None:
    proc = _run_cli("selftest", "--quick")
    assert proc.returncode == 0
    assert "point-roundtrips" not in proc.stdout


def test_unknown_verb_is_usage_error() -> None:
    proc = _run_cli("frobnicate")
    assert proc.returncode == 2


def _assert_one_line_error(proc: subprocess.CompletedProcess[str], code: int) -> None:
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_malformed_place_and_weight_tokens_are_usage_errors(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 3, True)
    _assert_one_line_error(_run_cli("strata", "--datum", str(datum), "--T", "a"), 2)
    _assert_one_line_error(
        _run_cli("ample", "--datum", str(datum), "--p", "3", "--t", "1,x,1"), 2
    )
    _assert_one_line_error(
        _run_cli("picard", "--datum", str(datum), "--p", "3", "--class", ""), 2
    )


def test_datum_missing_e_split_is_a_domain_error(tmp_path: Path) -> None:
    path = tmp_path / "datum.json"
    path.write_text(
        json.dumps({"primes": [{"id": "p1", "f": 4}], "S": {}, "level": {}}),
        encoding="utf-8",
    )
    proc = _run_cli("strata", "--datum", str(path), "--T", "1")
    _assert_one_line_error(proc, 1)
    assert "e_split" in proc.stderr


def test_malformed_link_and_datum_json_are_domain_errors(tmp_path: Path) -> None:
    def write(name: str, data) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    no_disp = {key: value for key, value in PAPER_LINK.items() if key != "disp"}
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    cases = [
        (("link", "--validate", write("no_disp.json", no_disp)), "'disp'"),
        (("link", "--validate", write("bad_node.json", {**PAPER_LINK, "disp": {"x": 1}})), "malformed"),
        (("link", "--validate", write("list.json", [1, 2])), "malformed"),
        (("link", "--invert", write("n_only.json", {"n": 3})), "'source_nodes'"),
        (("link", "--compose", write("ok.json", PAPER_LINK), str(tmp_path / "list.json")), "list.json"),
        (("ample", "--datum", write("datum.json", []), "--p", "3", "--t", "1"), "datum"),
        (("link", "--validate", str(not_utf8)), "utf-8"),
        # an empty file name is a missing file, not a datum mode
        (("link", "--validate", ""), "No such file"),
        (("link", "--invert", ""), "No such file"),
    ]
    for argv, needle in cases:
        proc = _run_cli(*argv)
        _assert_one_line_error(proc, 1)
        assert needle in proc.stderr


def test_link_modes_on_a_datum_require_one() -> None:
    for mode in (["--frobenius"], ["--standard", "TrivialHecke"]):
        proc = _run_cli("link", *mode)
        _assert_one_line_error(proc, 2)
        assert "requires --datum" in proc.stderr


def test_link_standard_offers_only_the_constructible_kinds(tmp_path: Path) -> None:
    # Composite labels derived morphisms, and Induced is no kind at all
    datum = _write_datum(tmp_path, 4, True, [1, 2])
    for kind in ("Induced", "Composite"):
        proc = _run_cli("link", "--standard", kind, "--datum", str(datum), "--tau", "3")
        _assert_one_line_error(proc, 2)
        assert proc.stderr == (
            f"usage error: gostrata link: argument --standard: invalid choice: '{kind}' "
            "(choose from 'PartialFrobenius', 'DeltaTau0', 'EtaTauMinusPlus', 'TrivialHecke')\n"
        )


def test_link_standard_on_a_split_prime_uses_the_canonical_lifts(tmp_path: Path) -> None:
    datum = tmp_path / "datum.json"
    datum.write_text(
        '{"primes":[{"id":"p1","f":3,"e_split":true}],"S":{"infty":[["p1",0]],"n_other":1}}',
        encoding="utf-8",
    )
    proc = _run_cli("link", "--standard", "PartialFrobenius", "--datum", str(datum))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    # the canonical lift of p1:0 lies on sheet 0
    assert payload["indentation"] == -2
    assert set(payload["link"]["disp"].values()) == {2}
    full = _write_datum(tmp_path, 2, True, [0, 1])
    proc = _run_cli("link", "--standard", "DeltaTau0", "--datum", str(full))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["indentation"] == 2


def test_link_sheet_outside_zero_one_is_a_usage_error(tmp_path: Path) -> None:
    full = _write_datum(tmp_path, 2, True, [0, 1])
    proc = _run_cli("link", "--standard", "DeltaTau0", "--datum", str(full), "--sheet", "2")
    _assert_one_line_error(proc, 2)
    assert "argument --sheet: invalid choice: 2" in proc.stderr


def test_link_negative_frobenius_power_is_a_usage_error(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 3, True)
    proc = _run_cli("link", "--frobenius", "--datum", str(datum), "--k", "-1")
    _assert_one_line_error(proc, 2)
    assert proc.stderr == "usage error: --k -1 must not be negative\n"


def test_non_prime_p_is_a_usage_error(tmp_path: Path) -> None:
    datum = _write_datum(tmp_path, 2, True)
    _assert_one_line_error(
        _run_cli("ample", "--datum", str(datum), "--p", "4", "--t", "1,1"), 2
    )
    _assert_one_line_error(
        _run_cli("picard", "--datum", str(datum), "--p", "4", "--matrix"), 2
    )
    _assert_one_line_error(
        _run_cli(
            "link", "--standard", "TrivialHecke", "--datum", str(datum),
            "--tau", "1", "--p", "4",
        ),
        2,
    )
    _assert_one_line_error(
        _run_cli("dieudonne", "--classify", "--seed", "1", "--p", "4", "--f", "2"), 2
    )


def test_dieudonne_rejects_precision_below_two() -> None:
    proc = _run_cli(
        "dieudonne", "--classify", "--seed", "1", "--p", "3", "--f", "2", "--N", "1"
    )
    _assert_one_line_error(proc, 2)
    assert "--N" in proc.stderr


def test_dieudonne_rejects_degree_out_of_range() -> None:
    # 1025 is also above the place system's own bound, once a domain error
    for f in ("0", "33", "1025"):
        proc = _run_cli("dieudonne", "--classify", "--seed", "1", "--p", "3", "--f", f)
        _assert_one_line_error(proc, 2)
        assert "--f" in proc.stderr


def test_dieudonne_finds_its_witt_ring_fast_at_a_large_prime() -> None:
    # p = 999983 is 3 mod 4 and 2 mod 3: every binomial x^4 + a and x^3 + a
    # is reducible, and the modulus search skips them instead of testing each
    for shape in (("--f", "2", "--inert"), ("--f", "3", "--split")):
        proc = _run_cli(
            "dieudonne", "--classify", "--seed", "1", "--p", "999983", *shape, timeout=20
        )
        assert proc.returncode == 0, proc.stderr
        assert "stratum" in json.loads(proc.stdout)


def test_dieudonne_rejects_negative_trials() -> None:
    proc = _run_cli(
        "dieudonne", "--roundtrip", "--seed", "1", "--p", "3", "--f", "2", "--trials", "-1"
    )
    _assert_one_line_error(proc, 2)
    assert "--trials" in proc.stderr


def test_every_verb_answers_help() -> None:
    for verb in ("strata", "strata-table", "link", "ample", "picard", "dieudonne", "selftest"):
        proc = _run_cli(verb, "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"usage: gostrata {verb} "), verb


# Runs one verb in a fresh interpreter, then prints its exit code and every
# gostrata module it left loaded.
_LOADED_MODULES = """\
import contextlib, io, sys
from gostrata import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.startswith("gostrata")))
"""


def test_each_verb_loads_only_the_library_modules_it_runs(tmp_path: Path) -> None:
    datum = str(_write_datum(tmp_path, 4, True, [1]))
    link = tmp_path / "link.json"
    link.write_text(json.dumps(PAPER_LINK), encoding="utf-8")
    cases = [
        (["strata", "--datum", datum, "--T", "2"], {"strata"}),
        (["strata-table", "--datum", datum, "--format", "json"], {"strata"}),
        (["link", "--validate", str(link)], {"links"}),
        (["ample", "--datum", datum, "--p", "3", "--t", "1,1,1"], {"picard"}),
        (["picard", "--datum", datum, "--p", "3", "--matrix"], {"picard"}),
        (
            ["dieudonne", "--classify", "--seed", "1", "--p", "3", "--f", "2"],
            {"strata", "witt", "dieudonne"},
        ),
        (["selftest", "--quick"], {"strata", "links", "picard", "witt"}),
    ]
    for argv, modules in cases:
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_MODULES, *argv],
            text=True,
            capture_output=True,
            check=True,
        )
        expected = {"gostrata", "gostrata.cli", "gostrata.places"}
        expected |= {f"gostrata.{name}" for name in modules}
        code, *loaded = proc.stdout.split()
        assert (code, set(loaded)) == ("0", expected), argv


def test_cli_import_does_not_load_sympy() -> None:
    proc = subprocess.run(
        [sys.executable, "-c", "import gostrata.cli, sys; print('sympy' in sys.modules)"],
        text=True,
        capture_output=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


def test_dieudonne_reports_a_precision_shortfall_as_such() -> None:
    proc = _run_cli(
        "dieudonne", "--classify", "--seed", "1", "--p", "3", "--f", "2", "--N", "5"
    )
    _assert_one_line_error(proc, 1)
    assert "precision budget N - RESERVE = 5 - 4 = 1" in proc.stderr


AMPLE_SPLIT_JSON = """\
{
  "status": "fail",
  "note": "necessary condition only",
  "inequalities": [
    {
      "lhs": "3*t[p1:0]",
      "rhs": "t[p1:3]"
    },
    {
      "lhs": "9*t[p1:2]",
      "rhs": "t[p1:0]"
    },
    {
      "lhs": "3*t[p1:3]",
      "rhs": "t[p1:2]"
    }
  ],
  "violations": [
    "p^2*t[p1,2] = -18 is not greater than t[p1,0] = 1"
  ]
}
"""

AMPLE_SPLIT_CSV = """\
lhs,rhs
3*t[p1:0],t[p1:3]
9*t[p1:2],t[p1:0]
3*t[p1:3],t[p1:2]
"""

AMPLE_INERT_JSON = """\
{
  "status": "%s",
  "note": "necessary condition only",
  "inequalities": [
    {
      "lhs": "2*t[p1:0]",
      "rhs": "t[p1:2]"
    },
    {
      "lhs": "2*t[p1:1]",
      "rhs": "t[p1:0]"
    },
    {
      "lhs": "2*t[p1:2]",
      "rhs": "t[p1:1]"
    }
  ],
  "violations": [%s]
}
"""


def test_ample_stdout_is_pinned(tmp_path: Path, capsys) -> None:
    from gostrata import cli

    def run(datum: Path, p: str, t: str, fmt: str) -> tuple[int, str]:
        code = cli.main(["ample", "--datum", str(datum), "--p", p, "--t", t, "--format", fmt])
        return code, capsys.readouterr().out

    split = _write_datum(tmp_path, 4, True, [1])
    assert run(split, "3", "1,-2,1/2", "json") == (1, AMPLE_SPLIT_JSON)
    assert run(split, "3", "1,-2,1/2", "csv") == (1, AMPLE_SPLIT_CSV)
    inert = _write_datum(tmp_path, 3, False)
    assert run(inert, "2", "1,1,1", "json") == (0, AMPLE_INERT_JSON % ("pass", ""))
    violation = '\n    "p^1*t[p1,2] = 4/3 is not greater than t[p1,1] = 5"\n  '
    assert run(inert, "2", "1,5,2/3", "json") == (1, AMPLE_INERT_JSON % ("fail", violation))
