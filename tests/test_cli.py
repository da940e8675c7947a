import json
import os
import subprocess
import sys

import pytest

from geosplit.cli import build_parser, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_densities_level3(capsys):
    code, out, _ = run(capsys, "densities", "--family", "gamma0", "--level", "3",
                       "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition\tdensity"
    assert lines[1:] == ["3,1\t2/3", "2,2\t1/4", "1,1,1,1\t1/12"]


def test_densities_json_schema(capsys):
    code, out, _ = run(capsys, "densities", "--family", "gamma0", "--level", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["densities"]["5,1"] == "2/5"
    assert doc["xi_order"] == 60 and doc["index"] == 6


def test_densities_closed_form_diff_empty(capsys):
    code, out, _ = run(capsys, "densities", "--family", "gamma1", "--level", "9",
                       "--closed-form", "--format", "tsv")
    assert code == 0
    assert "closed-form diff entries: 0" in out


def test_densities_composite(capsys):
    code, out, _ = run(capsys, "densities", "--family", "gamma0", "--level", "15",
                       "--composite")
    assert code == 0
    doc = json.loads(out)
    total = sum(
        int(v.split("/")[0]) / int(v.split("/")[1]) for v in doc["densities"].values()
    )
    assert abs(total - 1) < 1e-12


def test_densities_composite_rejects_prime(capsys):
    code, _, err = run(capsys, "densities", "--family", "gamma0", "--level", "25",
                       "--composite")
    assert code == 1


def test_densities_composite_xi_order_from_level(capsys):
    code, out, _ = run(capsys, "densities", "--family", "gamma0", "--level", "75",
                       "--composite")
    assert code == 0
    assert json.loads(out)["xi_order"] == 180000


@pytest.mark.parametrize("family", ["gamma1", "gamma"])
def test_densities_composite_refused_outside_gamma0(capsys, family):
    code, out, err = run(capsys, "densities", "--family", family, "--level", "15",
                         "--composite")
    assert code == 1
    assert out == ""
    assert "gamma0 only" in err and len(err.strip().splitlines()) == 1


def test_densities_closed_form_refused_before_the_census(capsys, monkeypatch):
    """A level with no closed form exits 1 without running the census."""
    import geosplit.census

    def no_census(level):
        raise AssertionError(f"the census of Xi({level}) ran")

    monkeypatch.setattr(geosplit.census, "conjugacy_classes", no_census)
    code, out, err = run(capsys, "densities", "--family", "gamma0", "--level", "240",
                         "--closed-form")
    assert code == 1 and out == ""
    assert "closed forms require" in err


@pytest.mark.parametrize("level, code", [(729, 2), (1024, 1)])
def test_densities_closed_form_over_the_cap_refused_first(capsys, monkeypatch, level, code):
    """An odd prime power over the census cap exits 2 before the closed
    table is built; a level with no closed form still exits 1 first."""
    import geosplit.cli

    def no_closed_form(spec):
        raise AssertionError(f"the closed table of {spec} was built")

    monkeypatch.setattr(geosplit.cli, "density_table_closed_form", no_closed_form)
    got, out, err = run(capsys, "densities", "--family", "gamma0", "--level", str(level),
                        "--closed-form")
    assert got == code and out == ""
    assert ("exceeds cap" if code == 2 else "closed forms require") in err


def test_densities_closed_form_composite_refused_before_the_closed_table(capsys, monkeypatch):
    """--composite refuses every prime power, so --closed-form with it exits
    1 without building the closed table."""
    import geosplit.cli

    def no_closed_form(spec):
        raise AssertionError(f"the closed table of {spec} was built")

    monkeypatch.setattr(geosplit.cli, "density_table_closed_form", no_closed_form)
    got, out, err = run(capsys, "densities", "--family", "gamma0", "--level", "707281",
                        "--closed-form", "--composite")
    assert got == 1 and out == ""
    assert "two prime factors" in err


# the prime 2^61 - 1 and a product of two 15-digit primes: above 10^12
# with no prime factor up to factorize's trial bound
HUGE_LEVEL = str(2**61 - 1)
SEMIPRIME = str(100000000000031 * 100000000000067)


@pytest.mark.parametrize("args", [
    ("census", "--level", HUGE_LEVEL),
    ("type", "--family", "gamma0", "--level", HUGE_LEVEL, "--matrix", "2,1,1,1"),
    ("densities", "--family", "gamma0", "--level", HUGE_LEVEL),
    ("empirical", "--family", "gamma0", "--level", HUGE_LEVEL, "--x", "100"),
    ("zeta-check", "--p", "3", "--s", "2", "--x", "100", "--check", "venkov",
     "--family", "gamma0", "--level", HUGE_LEVEL),
])
def test_huge_level_refused_without_factoring(capsys, monkeypatch, tmp_path, args):
    """The bound |Xi(N)| > 0.3 N^3 refuses a huge level with exit 2 before
    the level is factored."""
    import geosplit.core

    def no_factoring(n):
        raise AssertionError(f"{n} was factored")

    monkeypatch.setattr(geosplit.core, "factorize", no_factoring)
    code, out, err = run(capsys, "--cache-dir", str(tmp_path / "cache"), *args)
    assert code == 2 and out == ""
    assert "exceeds cap" in err


@pytest.mark.parametrize("args", [
    ("densities", "--family", "gamma0", "--level", HUGE_LEVEL, "--closed-form"),
    ("densities", "--family", "gamma0", "--level", str(2 * (2**61 - 1)), "--composite"),
    ("zeta-check", "--p", HUGE_LEVEL, "--s", "2", "--x", "100"),
    ("densities", "--family", "gamma0", "--level", SEMIPRIME, "--closed-form"),
    ("densities", "--family", "gamma0", "--level", SEMIPRIME, "--composite"),
    ("zeta-check", "--p", SEMIPRIME, "--s", "2", "--x", "100"),
    ("zeta-check", "--p", "318665857834031151167461", "--s", "2", "--x", "100"),
])
def test_huge_level_factored_then_refused(tmp_path, args):
    """Routes that factor the level first (closed form, composite, the
    prime check of zeta-check) reach the cap at once: exit 2, in a fresh
    process with a time limit.  Neither a product of two 15-digit primes
    nor a strong pseudoprime to the primes below 40 has a factor up to the
    trial bound."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "geosplit.cli", "--cache-dir",
                           str(tmp_path / "cache"), *args], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds cap" in proc.stderr


def test_densities_cap_exit(capsys):
    code, _, err = run(capsys, "densities", "--family", "gamma0", "--level", "9973")
    assert code == 2
    assert "exceeds cap" in err


def test_type_examples(capsys):
    code, out, _ = run(capsys, "type", "--matrix", "1,0,0,1", "--family", "gamma0",
                       "--level", "5")
    assert code == 0
    assert out.splitlines()[0] == "1,1,1,1,1,1"

    code, out, _ = run(capsys, "type", "--matrix", "2,1,1,1", "--family", "gamma0",
                       "--level", "3")
    assert code == 0
    assert out.splitlines()[0] == "2,2"
    assert out.splitlines()[1] == "moebius: 2,2"
    assert out.splitlines()[2] == "M(gamma): 2"

    # the spec's worked value for this one traces to an arithmetic slip; the
    # recursion from the brute-forced traces (3, 3, 12) gives (9,1,1,1)
    code, out, _ = run(capsys, "type", "--matrix", "1,1,0,1", "--family", "gamma0",
                       "--level", "9")
    assert code == 0
    assert out.splitlines()[0] == "9,1,1,1"


@pytest.mark.parametrize("family, level, index", [("gamma0", 1000, 1800),
                                                  ("gamma1", 293, 42924)])
def test_type_above_the_group_cap(capsys, family, level, index):
    """|Xi| is 3.6e8 and 1.26e7, over the census cap, but the coset tables
    list their cosets from first columns without walking the group."""
    code, out, err = run(capsys, "type", "--matrix", "2,1,1,1", "--family", family,
                         "--level", str(level))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[1] == f"moebius: {lines[0]}"
    assert sum(map(int, lines[0].split(","))) == index


def test_type_rejects_bad_determinant(capsys):
    code, _, err = run(capsys, "type", "--matrix", "1,2,3,4", "--family", "gamma0",
                       "--level", "5")
    assert code == 1
    assert "determinant" in err


@pytest.mark.parametrize("matrix", ["2,1,1", "2,1,1,1,1", "2,1,x,1"])
def test_type_matrix_needs_four_integers(capsys, matrix):
    code, out, err = run(capsys, "type", "--matrix", matrix, "--family", "gamma0",
                         "--level", "3")
    assert code == 1 and out == ""
    assert err == f"error: --matrix takes four integers a,b,c,d, got {matrix!r}\n"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", jobs, "empirical", "--family", "gamma0", "--level", "5",
              "--x", "100"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: --jobs must be at least 1" in captured.err


@pytest.mark.parametrize("affinity,cpu_count,want", [({0}, 8, 1), ({0, 3, 5}, 8, 3),
                                                     (None, 6, 6), (None, None, 1)])
def test_jobs_defaults_to_the_available_cores(monkeypatch, affinity, cpu_count, want):
    """The default is the size of the process's CPU affinity set, not the
    machine's CPU count; where the platform has no affinity call, the CPU
    count, or 1 when that is unknown."""
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert build_parser().parse_args(["census", "--level", "3"]).jobs == want


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["densities", "--family", "gamma0", "--level", "3", "--frobnicate"])
    assert exc.value.code == 1


def test_empirical_small(capsys):
    code, out, _ = run(capsys, "--jobs", "1", "empirical", "--family", "gamma0",
                       "--level", "5", "--x", "7")
    assert code == 0
    lines = out.strip().splitlines()
    counts = [int(l.split("\t")[1]) for l in lines[1:] if not l.startswith("#")]
    assert sum(counts) == 1


def test_empirical_scan_json(capsys):
    code, out, _ = run(capsys, "--jobs", "1", "empirical", "--family", "gamma0",
                       "--level", "3", "--x", "500", "--scan-anomalous",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["anomalous_count"] == 0
    assert doc["total"] == sum(r["count"] for r in doc["rows"])


def test_census_cache_flow(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run(capsys, "--cache-dir", cache, "census", "--level", "3")
    assert code == 0 and "cache written" in out
    path = os.path.join(cache, "census-gamma0-3.json")
    assert os.path.exists(path)

    code, out, _ = run(capsys, "--cache-dir", cache, "census", "--level", "3")
    assert code == 0 and "cache verified" in out

    code, out, _ = run(capsys, "--cache-dir", cache, "census", "--level", "3",
                       "--trust-cache")
    assert code == 0 and "cache trusted" in out

    # corrupt the cache: verification must fail with the consistency exit code
    doc = json.load(open(path))
    doc["densities"]["3,1"] = "1/3"
    json.dump(doc, open(path, "w"))
    code, _, err = run(capsys, "--cache-dir", cache, "census", "--level", "3")
    assert code == 3 and "stale" in err


def test_census_refusal_makes_no_cache_directory(tmp_path, capsys):
    """A level below 2 (usage, exit 1) or over the census cap (exit 2) is
    refused before the cache directory is made."""
    cache = tmp_path / "cache"
    for argv, want in ((["--level", "1"], 1), (["--family", "gamma", "--level", "100000"], 2)):
        code, _, err = run(capsys, "--cache-dir", str(cache), "census", *argv)
        assert code == want and "error" in err
        assert not cache.exists()


def test_census_truncated_cache_is_inconsistent(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, _, _ = run(capsys, "--cache-dir", cache, "census", "--level", "3")
    assert code == 0
    path = os.path.join(cache, "census-gamma0-3.json")
    text = open(path).read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    for flags in ((), ("--trust-cache",)):
        code, out, err = run(capsys, "--cache-dir", cache, "census", "--level", "3", *flags)
        assert code == 3 and out == ""
        assert "unreadable census cache" in err


@pytest.mark.parametrize("argv", [
    ("densities", "--family", "gamma0", "--level", "5"),
    ("--jobs", "1", "empirical", "--family", "gamma0", "--level", "5", "--x", "3000"),
])
def test_output_into_a_missing_directory_is_usage_error(tmp_path, capsys, argv):
    path = str(tmp_path / "missing" / "x.json")
    code, out, err = run(capsys, *argv, "--output", path)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "No such file or directory" in err


def test_cache_dir_that_is_a_file_is_usage_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.write_text("not a directory")
    code, out, err = run(capsys, "--cache-dir", str(cache), "census", "--level", "5")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(cache) in err


def test_census_cache_path_that_is_a_directory_is_inconsistent(tmp_path, capsys):
    cache = tmp_path / "cache"
    (cache / "census-gamma0-5.json").mkdir(parents=True)
    for flags in ((), ("--trust-cache",)):
        code, out, err = run(capsys, "--cache-dir", str(cache), "census", "--level", "5", *flags)
        assert code == 3 and out == ""
        assert "unreadable census cache" in err


def test_census_level_25_size(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run(capsys, "--cache-dir", cache, "census", "--level", "25")
    assert code == 0
    doc = json.load(open(os.path.join(cache, "census-gamma0-25.json")))
    assert doc["xi_order"] == 7500
    assert sum(row["size"] for row in doc["classes"]) == 7500
    assert doc["densities"]["25,5"] == "8/25"


def test_census_env_var_overrides_flag(tmp_path, capsys, monkeypatch):
    flag_dir = str(tmp_path / "flagdir")
    env_dir = str(tmp_path / "envdir")
    monkeypatch.setenv("GEODESIC_CACHE_DIR", env_dir)
    code, out, _ = run(capsys, "--cache-dir", flag_dir, "census", "--level", "3")
    assert code == 0
    assert os.path.exists(os.path.join(env_dir, "census-gamma0-3.json"))
    assert not os.path.exists(flag_dir)


def test_zeta_check_ratio(capsys):
    code, out, _ = run(capsys, "--jobs", "1", "zeta-check", "--p", "3", "--s", "2",
                       "--x", "2000")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"p", "s", "cutoff", "lhs_log", "rhs_log", "discrepancy",
                        "term_count"}
    assert doc["discrepancy"] < 1e-9


@pytest.mark.parametrize("p", ["9", "15"])
def test_zeta_check_rejects_composite_p(capsys, p):
    code, out, err = run(capsys, "--jobs", "1", "zeta-check", "--p", p, "--s", "2",
                         "--x", "2000")
    assert code == 1 and out == ""
    assert "odd prime" in err


@pytest.mark.parametrize("cmd", ["empirical", "zeta-check"])
@pytest.mark.parametrize("x", ["inf", "nan"])
def test_non_finite_cutoff_is_usage_error(capsys, cmd, x):
    args = (["empirical", "--family", "gamma0", "--level", "5"] if cmd == "empirical"
            else ["zeta-check", "--p", "3", "--s", "2"])
    code, out, err = run(capsys, "--jobs", "1", *args, "--x", x)
    assert code == 1 and out == ""
    assert "finite" in err


@pytest.mark.parametrize("check", ["ratio", "venkov"])
@pytest.mark.parametrize("s", ["nan", "inf"])
def test_non_finite_s_is_usage_error(capsys, check, s):
    code, out, err = run(capsys, "--jobs", "1", "zeta-check", "--p", "3", "--s", s,
                         "--x", "100", "--check", check)
    assert code == 1 and out == ""
    assert err == f"error: s must be finite, got {s}\n"


def test_zeta_check_venkov(capsys):
    code, out, _ = run(capsys, "--jobs", "1", "zeta-check", "--p", "5", "--s", "2",
                       "--x", "2000", "--check", "venkov", "--family", "gamma",
                       "--level", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["discrepancy"] < 1e-9
    assert doc["family"] == "gamma" and doc["level"] == 5


def test_output_files_byte_identical(tmp_path, capsys):
    a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
    for path in (a, b):
        code, _, _ = run(capsys, "--jobs", "1", "empirical", "--family", "gamma0",
                         "--level", "5", "--x", "3000", "--output", path)
        assert code == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_densities_output_file(tmp_path, capsys):
    path = str(tmp_path / "dens.json")
    code, _, _ = run(capsys, "densities", "--family", "gamma", "--level", "5",
                     "--output", path)
    assert code == 0
    doc = json.load(open(path))
    # principal family: rectangle partitions only
    for key in doc["densities"]:
        parts = key.split(",")
        assert len(set(parts)) == 1


@pytest.mark.parametrize("cmd", ["empirical", "zeta-check"])
def test_cutoff_above_cap_exits_2(capsys, monkeypatch, cmd):
    from geosplit import geodesics

    def refuse(*args, **kwargs):
        raise AssertionError("allocated for a capped cutoff")

    monkeypatch.setattr(geodesics, "_coprime_pairs", refuse)
    monkeypatch.setattr(geodesics, "Pool", refuse)
    args = (["empirical", "--family", "gamma0", "--level", "5"] if cmd == "empirical"
            else ["zeta-check", "--p", "3", "--s", "2"])
    code, out, err = run(capsys, "--jobs", "2", *args, "--x", "1e12")
    assert code == 2 and out == ""
    assert "exceeds cap" in err


def test_negative_cutoff_is_an_empty_truncation(capsys):
    """x = -5 admits no trace, like x = 0.5: zero terms, exit 0."""
    results = {}
    for x in ("-5", "0.5"):
        code, out, err = run(capsys, "--jobs", "1", "zeta-check", "--p", "3", "--s", "2",
                             "--x", x)
        assert code == 0 and err == ""
        results[x] = json.loads(out)
    assert results["-5"]["term_count"] == 0
    assert results["-5"]["cutoff"] == -5.0
    assert dict(results["-5"], cutoff=0.5) == results["0.5"]


def test_tensor_multiplicity_failure_exits_3(capsys, monkeypatch):
    """A fault of the tensor rule is an internal fault: exit 3, no table."""
    from geosplit import census
    from geosplit.core import ConsistencyError

    def broken(lam1, lam2):
        raise ConsistencyError("tensor rule fault")

    monkeypatch.setattr(census, "tensor_partitions", broken)
    code, out, err = run(capsys, "densities", "--family", "gamma0", "--level", "15",
                         "--composite")
    assert code == 3 and out == ""
    assert err == "error: tensor rule fault\n"


@pytest.mark.parametrize("args, code", [
    (["--jobs", "2", "zeta-check", "--p", "9", "--s", "2", "--x", "1e6"], 1),
    (["zeta-check", "--p", "3", "--s", "1", "--x", "1e6"], 1),
    (["zeta-check", "--p", "5", "--s", "0.5", "--x", "1e6", "--check", "venkov"], 1),
    (["empirical", "--family", "gamma0", "--level", "75", "--x", "5"], 1),
    (["empirical", "--family", "gamma1", "--level", "75", "--x", "1e12"], 2),
    (["--jobs", "2", "zeta-check", "--p", "5", "--s", "2", "--x", "1e6", "--check", "venkov",
      "--family", "gamma", "--level", "10000"], 2),
    (["--jobs", "2", "zeta-check", "--p", "401", "--s", "2", "--x", "1e6"], 2),
])
def test_bad_arguments_refused_before_the_work(capsys, monkeypatch, args, code):
    """p, s, the cutoff and the coset key cap of every cover a check uses
    (Gamma(401) for the ratio check at p = 401) are checked before the
    classes are enumerated or the census is taken."""
    from geosplit import census, geodesics

    def refuse(*args, **kwargs):
        raise AssertionError("started the expensive work")

    monkeypatch.setattr(geodesics, "enumerate_primitive_classes", refuse)
    monkeypatch.setattr(geodesics, "primitive_class_chunks", refuse)
    monkeypatch.setattr(census, "conjugacy_classes", refuse)
    got, out, err = run(capsys, *args)
    assert got == code and out == ""
    assert err.startswith("error: ")
