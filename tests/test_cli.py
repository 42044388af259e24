import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from invperm.cli import main
from invperm.experiments import run_monotonicity_check
from invperm.limits import alpha_for_mu


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_outside_the_range_prints_0_without_a_table(capsys, monkeypatch):
    """s(n, m) = 0 for m outside 0..C(n,2) is printed without building a
    table, and an m past C(n,2)/2 builds the table capped at C(n,2) - m."""
    from invperm import cli
    from invperm.counting import build_table

    def no_table(*args, **kwargs):
        raise AssertionError("table built for a count of 0")

    monkeypatch.setattr(cli.counting, "build_table", no_table)
    for n, m in [(300, -5), (1000, -1), (300, 50_000), (10, 46), (1, 1)]:
        assert run_cli(capsys, "count", str(n), str(m)) == (0, "0\n", "")
    caps = []
    monkeypatch.setattr(
        cli.counting, "build_table", lambda n, m_cap: caps.append(m_cap) or build_table(n, m_cap)
    )
    for n, m, expected in [
        (10, 45, "1"), (10, 44, "9"), (10, 20, "230131"), (10, 25, "230131"), (4, 2, "5")
    ]:
        assert run_cli(capsys, "count", str(n), str(m)) == (0, expected + "\n", "")
    assert caps == [0, 1, 20, 20, 2]


@pytest.mark.parametrize("argv", ["table --max-n 5 --out x", "count 10 20 --table x"])
def test_removed_cache_commands_exit_2_through_argparse(argv, capsys, tmp_path, monkeypatch):
    """``invperm table`` and ``count --table`` are gone: argparse refuses
    them with its usage line, and no file is written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: invperm")
    assert list(tmp_path.iterdir()) == []


def test_readme_cli_examples_parse():
    """Every ``invperm ...`` line of README's CLI block names a command
    and flags the parser has."""
    import shlex

    from invperm.cli import build_parser

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("invperm ")]
    assert len(lines) >= 10
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_blocks_json(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--perm", "2,4,1,3,5,8,6,7")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"boundaries": [0, 4, 5, 8], "sizes": [4, 1, 3]}


def test_invseq_both_directions(capsys):
    code, out, _ = run_cli(capsys, "invseq", "--from-perm", "2,3,1,7,6,4,9,8,5")
    assert code == 0 and out.strip() == "0,0,2,0,1,2,0,1,4"
    code, out, _ = run_cli(capsys, "invseq", "--to-perm", "0,0,2,0,1,2,0,1,4")
    assert code == 0 and out.strip() == "2,3,1,7,6,4,9,8,5"


def test_invseq_refuses_empty_input_in_both_directions(capsys):
    for flag, message in (("--from-perm", "empty permutation"), ("--to-perm", "empty inversion")):
        code, out, err = run_cli(capsys, "invseq", flag, "")
        assert code == 2 and out == ""
        assert err.startswith(f"invperm invseq: {message}") and "Traceback" not in err


def test_sample_deterministic_and_formats(capsys):
    args = ("sample", "--n", "8", "--m", "9", "--count", "3", "--seed", "4")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0 and len(out1.strip().splitlines()) == 3
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    for line in out1.strip().splitlines():
        assert sum(int(v) for v in line.split(",")) == 9

    code, out, _ = run_cli(capsys, *args, "--format", "perm")
    assert code == 0
    from invperm.permutations import inversion_count, parse_one_line

    for line in out.strip().splitlines():
        assert inversion_count(parse_one_line(line)) == 9

    code, _, err = run_cli(capsys, "sample", "--n", "4", "--m", "9")
    assert code == 2


def test_sample_large_n_path(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--n", "20000", "--m", "90000", "--seed", "1"
    )
    assert code == 0
    values = [int(v) for v in out.strip().split(",")]
    assert len(values) == 20000 and sum(values) == 90000


@pytest.mark.parametrize("n, m, count", [(2000, 1000, 1), (8, 9, 3)])
def test_sample_prints_split_sampler_draws(capsys, n, m, count):
    """``sample`` has one engine: its lines are ``SplitSampler(n, m)``'s
    draws on streams 0, 1, ...; at (8, 9) the head is the whole sequence,
    at (2000, 1000) a 16-long head with a tail."""
    from invperm.rng import SamplerContext
    from invperm.sampling import SplitSampler

    code, out, _ = run_cli(
        capsys, "sample", "--n", str(n), "--m", str(m), "--count", str(count), "--seed", "6"
    )
    assert code == 0
    sampler = SplitSampler(n, m)
    assert sampler.head_size == (16 if n == 2000 else n)
    draws = [sampler.sample(SamplerContext(None, 6, (i,))).tolist() for i in range(count)]
    assert out.splitlines() == [",".join(map(str, x)) for x in draws]


def test_chain_trace(capsys):
    code, out, _ = run_cli(
        capsys, "chain", "--n", "5", "--to", "4", "--seed", "2", "--trace"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # 4 trace lines + final state
    final = [int(v) for v in lines[-1].split(",")]
    assert sum(final) == 4
    code, _, err = run_cli(capsys, "chain", "--n", "4", "--to", "99")
    assert code == 2


def test_chain_capped_table_gives_the_full_tables_trace(capsys, monkeypatch):
    """``chain`` caps its table at min(to, C(n,2)//2) + 2; every budget
    its walk reads is at most min(t, C(n,2)-1-t), so the trace is the one
    a full table gives."""
    from invperm import cli
    from invperm.counting import build_table, max_inversions
    from invperm.coupling import run_chain
    from invperm.rng import SamplerContext

    caps = []

    def recording_build_table(n, m_cap=None):
        caps.append(m_cap)
        return build_table(n, m_cap=m_cap)

    monkeypatch.setattr(cli.counting, "build_table", recording_build_table)
    for n, to in [(5, 10), (12, 40), (20, 100), (30, 12), (40, 600)]:
        full = build_table(n)
        for seed in range(5):
            code, out, _ = run_cli(
                capsys, "chain", "--n", str(n), "--to", str(to), "--seed", str(seed), "--trace"
            )
            assert code == 0
            assert caps.pop() == min(to, max_inversions(n) // 2) + 2
            trace = []
            state = run_chain(n, to, SamplerContext(full, seed, (0,)), trace=trace)
            lines = [f"step {k}: +1 at coordinate {box}" for k, box in enumerate(trace, 1)]
            assert out.splitlines() == lines + [",".join(map(str, state.x))]


def test_chain_refuses_oversize_n_before_building(capsys, monkeypatch):
    from invperm import cli

    def no_table(*args, **kwargs):
        raise AssertionError("table built for a refused request")

    monkeypatch.setattr(cli.counting, "build_table", no_table)
    for n in (cli.CHAIN_MAX_N + 1, 10**6, 0):
        code, out, err = run_cli(capsys, "chain", "--n", str(n), "--to", "3")
        assert code == 2 and out == ""
        assert f"1..{cli.CHAIN_MAX_N}" in err


def test_rho_output_and_guard(capsys):
    code, out, _ = run_cli(capsys, "rho", "--n", "4", "--m", "2")
    assert code == 0
    assert "5/12" in out and "0003" in out
    code, _, err = run_cli(capsys, "rho", "--n", "9", "--m", "2")
    assert code == 2


def test_params_json_and_errors(capsys):
    code, out, _ = run_cli(capsys, "params", "--n", "1000", "--mu", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "threshold"
    assert payload["lambda"] == pytest.approx(payload["n"] * payload["h"])
    code, _, _ = run_cli(capsys, "params", "--n", "50", "--m", "10")
    assert code == 0
    code, _, err = run_cli(capsys, "params", "--n", "50")
    assert code == 2


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_params_refuses_both_m_and_mu(capsys):
    code, out, err = run_cli(capsys, "params", "--n", "50", "--m", "10", "--mu", "0")
    assert code == 2 and out == ""
    assert err.startswith("invperm params: ") and "--m" in err and "--mu" in err


@pytest.mark.parametrize("mu,m", [("1e308", 999 * 998 // 2), ("-1e308", 999)])
def test_huge_mu_clamps_to_the_band(mu, m, capsys):
    """alpha * n overflows a float at |mu| = 1e308; m clamps as at |mu| = 50.
    The census at C(n-1, 2) has no finite-n law and exits 0; at n - 1 three
    trials are judged, and the exit code is their verdict."""
    code, out, err = run_cli(capsys, "params", "--n", "1000", f"--mu={mu}")
    assert code == 0 and err == ""
    assert _strict_json(out)["m"] == m
    code, out, err = run_cli(
        capsys, "census", "--n", "1000", "--mode", "components", f"--mu={mu}", "--trials", "3"
    )
    judgement = _strict_json(out)["judgement"]
    assert err == "" and code == (0 if judgement["passed"] else 1)
    assert [p["m"] for p in judgement["points"]] == [m]
    if mu == "1e308":
        assert code == 0 and "2m > C(n,2)" in judgement["points"][0]["unjudged"]


def test_params_reads_a_negative_mu_with_an_exponent(capsys):
    """``--mu -1e2`` is read as ``--mu=-1e2``, not as a missing value."""
    joined = run_cli(capsys, "params", "--n", "1000", "--mu=-1e2")
    assert joined[0] == 0 and _strict_json(joined[1])["m"] == 999
    assert run_cli(capsys, "params", "--n", "1000", "--mu", "-1e2") == joined


def test_census_reads_a_negative_mu_with_an_exponent(capsys):
    """Each ``--mu -3e0`` and ``--mu -2.5e0`` is read as its own point;
    a value that is no number still exits 2 from argparse."""
    argv = ["census", "--n", "2000", "--mode", "components", "--trials", "3"]
    code, out, err = run_cli(capsys, *argv, "--mu", "-3e0", "--mu", "-2.5e0")
    judgement = _strict_json(out)["judgement"]
    assert err == "" and code == (0 if judgement["passed"] else 1)
    assert [p["m"] for p in judgement["points"]] == [
        alpha_for_mu(2000, mu)[1] for mu in (-3.0, -2.5)
    ]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--mu", "-x"])
    assert exc.value.code == 2 and "--mu: expected one argument" in capsys.readouterr().err


def test_params_near_q_one_returns_at_once(capsys):
    """q = 1 - 1e-7: h underflows to 0.0, and the call does not run all
    of the Euler product's 4.8e8 factors."""
    code, out, _ = run_cli(capsys, "params", "--n", "100000000", "--m", "1000000000000000")
    assert code == 0
    assert _strict_json(out)["lambda"] == 0.0


def test_census_with_one_trial_writes_strict_json(capsys, tmp_path):
    """One trial has no spread, so both mean gaps, to the finite-n mean and
    to the limit, are written as null."""
    code, out, _ = run_cli(
        capsys, "census", "--mode", "components", "--n", "30", "--m", "60",
        "--trials", "1", "--out", str(tmp_path),
    )
    assert code in (0, 1)
    for text in (out, (tmp_path / "components_n30_seed0.json").read_text()):
        (verdict,) = _strict_json(text)["judgement"]["points"]
        assert verdict["measured"]["mean_gap_sigma"] is verdict["anchors"]["gap_sigma"] is None


def test_census_judges_against_the_finite_n_law(capsys):
    """At n = 10^4 the limit law is off by 4-7 standard errors of 400
    trials, but the exact sampler is within tolerance of the finite-n law,
    so the census exits 0 and the limit gaps stay as anchors.  At 400
    trials the TV's noise floor is 0.03-0.08 against a 0.10 tolerance, so
    the seed is pinned."""
    code, out, _ = run_cli(
        capsys, "census", "--mode", "components", "--n", "10000",
        "--mu", "-1", "--mu", "0", "--mu", "1", "--trials", "400", "--seed", "2",
    )
    judgement = _strict_json(out)["judgement"]
    assert code == 0 and judgement["passed"] is True
    assert "finite-n" in judgement["reference"]
    assert len(judgement["points"]) == 3
    for verdict in judgement["points"]:
        assert verdict["unjudged"] is None and all(verdict["ok"].values())
        assert verdict["anchors"]["gap_sigma"] > 3.0


def test_census_flag_config(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "census",
        "--n", "60",
        "--mode", "components",
        "--m", "100",
        "--trials", "40",
        "--seed", "3",
        "--out", str(tmp_path),
    )
    payload = json.loads(out)
    assert payload["trials"] == 40
    assert (tmp_path / "components_n60_seed3.json").exists()
    assert code in (0, 1)  # statistical outcome, not an error


def test_census_json_config(capsys, tmp_path):
    cfg = {
        "n": 60,
        "mode": "components",
        "m_list": [100],
        "trials": 30,
        "seed": 8,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "census", "--config", str(path))
    assert code in (0, 1)
    assert json.loads(out)["seed"] == 8


def test_census_config_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "census", "--n", "5000", "--mode", "blocks", "--mu", "0"
    )
    assert code == 2 and "mu <= -2" in err

    code, _, err = run_cli(capsys, "census", "--n", "60")
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "census", "--config", str(bad))
    assert code == 2

    for name, cfg in [
        ("unknown", {"n": 60, "mode": "components", "bogus": 1}),
        ("list", [60, "components"]),
        ("mistyped", {"n": 60, "mode": "components", "m_list": [100], "trials": "x"}),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "census", "--config", str(path))
        assert code == 2 and out == "" and err.startswith("invperm census: ")

    # each mistyped field is named on one line, before anything runs
    for field, value in [
        ("seed", "x"),
        ("trials", 2.5),
        ("out_dir", 5),
        ("m_list", ["100"]),
        ("trials", True),
        ("parallelism", 1.0),
        ("n", None),
        ("mu_list", [True]),
    ]:
        cfg = {"n": 60, "mode": "components", "m_list": [100], field: value}
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "census", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"invperm census: {field} must be ")
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "sample --n 0 --m 0",
        "count 0 0",
        "params --n 2 --mu 0",
        "blocks --perm 1,1",
        "invseq --to-perm 0,5",
        "invseq --from-perm 2,2",
        "rho --n 1 --m 0",
        "rho --n 4 --m 99",
        "count 100000 1000000000",
        "census --n 60",
        "census --config missing.json",
        "params --n 1000 --mu inf",
        "params --n 1000 --mu nan",
        "census --n 1000 --mode components --mu inf --trials 2",
        "census --mode monotonicity --n 1",
    ],
)
def test_bad_input_exits_2_without_traceback(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    words = argv.split()
    code, out, err = run_cli(capsys, *words)
    assert code == 2 and out == ""
    assert err.startswith(f"invperm {words[0]}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "F").exists()


@pytest.mark.parametrize(
    "argv,name",
    [("count 0 0", "n"), ("sample --n 0 --m 0", "--n"), ("rho --n 0 --m 0", "--n")],
)
def test_nonpositive_n_names_the_cli_argument(argv, name, capsys):
    words = argv.split()
    code, out, err = run_cli(capsys, *words)
    assert code == 2 and out == ""
    assert err == f"invperm {words[0]}: {name} must be >= 1\n"


@pytest.mark.parametrize("count", ["-1", "0"])
def test_sample_rejects_count_below_1(count, capsys):
    code, out, err = run_cli(capsys, "sample", "--n", "5", "--m", "3", "--count", count)
    assert code == 2 and out == ""
    assert err == "invperm sample: --count must be >= 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("sample --n 2000 --m 1000 --seed -1", "--seed must be >= 0"),
        ("chain --n 6 --to 9 --seed -1", "--seed must be >= 0"),
        ("census --n 100000 --mode components --mu 0 --trials 2 --seed -1", "seed must be >= 0"),
    ],
    ids=["sample", "chain", "census"],
)
def test_negative_seed_is_refused_before_anything_is_built(argv, message, capsys, monkeypatch):
    from invperm import cli, experiments

    def built(*args, **kwargs):
        raise AssertionError("built before the seed was checked")

    monkeypatch.setattr(cli, "SplitSampler", built)
    monkeypatch.setattr(experiments, "SplitSampler", built)
    monkeypatch.setattr(cli.counting, "build_table", built)
    words = argv.split()
    assert run_cli(capsys, *words) == (2, "", f"invperm {words[0]}: {message}\n")


def test_census_out_that_cannot_be_made_exits_2_before_any_trial(capsys, tmp_path, monkeypatch):
    from invperm import experiments

    def trial(*args, **kwargs):
        raise AssertionError("a trial ran before the output directory was made")

    monkeypatch.setattr(experiments, "_trial_chunk", trial)
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "out")
    code, stdout, err = run_cli(
        capsys, "census", "--n", "1000", "--mode", "components", "--mu", "0", "--trials", "2",
        "--out", out,
    )
    assert code == 2 and stdout == ""
    assert err.startswith("invperm census: [Errno 20] Not a directory")
    assert err.count("\n") == 1


def test_census_marked_window_longer_than_the_rest_exits_2(capsys):
    code, out, err = run_cli(capsys, "census", "--n", "10", "--mode", "marked", "--m", "5")
    assert code == 2 and out == ""
    assert "n=10, m=5 give nu=7" in err and "sequence length" not in err


def test_census_marked_with_two_points_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "census", "--n", "2000", "--mode", "marked", "--m", "3000", "--m", "9000"
    )
    assert code == 2 and out == ""
    assert err == "invperm census: marked mode takes one point (one --mu or --m); got 2\n"


def test_census_marked_refuses_parallelism_it_ignores(capsys):
    """The marked census runs serially, so a parallelism other than
    1 is refused by name rather than reported as if it ran."""
    code, out, err = run_cli(
        capsys, "census", "--n", "20000", "--mode", "marked", "--mu", "-2", "--parallelism", "2"
    )
    assert code == 2 and out == ""
    assert err == "invperm census: marked mode runs serially; drop parallelism=2\n"


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize(
    "n, m, message",
    [
        ("10", "100", "m=100 outside 0..45 at n=10"),  # refused by the config
        ("1000", "249750", "may take 1.56e+11 bytes, above 2e+09"),  # by each worker's sampler
    ],
)
def test_census_unbuildable_point_at_parallelism_2_exits_2(capsys, n, m, message):
    """A point whose sampler cannot be built gives one error line and exit
    2 at parallelism 2, as at parallelism 1, not a broken process pool."""
    code, out, err = run_cli(
        capsys, "census", "--n", n, "--mode", "components", "--m", m, "--trials", "5",
        "--parallelism", "2",
    )
    assert code == 2 and out == ""
    assert err.startswith("invperm census: ") and message in err and err.count("\n") == 1


def test_census_blocks_at_the_middle_budget_prints_its_report(capsys):
    """At n = 4, mu = -3 gives m = 3 = C(4,2)/2, whose saddle point is x = 1:
    the point is left unjudged with its reason, and the report prints."""
    code, out, err = run_cli(
        capsys, "census", "--n", "4", "--mode", "blocks", "--mu", "-3", "--trials", "2"
    )
    report = json.loads(out)
    [verdict] = report["judgement"]["points"]
    assert err == "" and report["points"][0]["m"] == 3
    assert verdict["unjudged"].startswith("2m = C(n,2)") and verdict["ok"] == {}
    assert code == (0 if report["judgement"]["passed"] else 1)


def test_census_config_with_head_size_exits_2(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    cfg = {"n": 60, "mode": "components", "m_list": [100], "head_size": 4}
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "census", "--config", str(path))
    assert code == 2 and out == "" and "head_size" in err


def test_census_monotonicity_mode(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "census", "--mode", "monotonicity", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["nondecreasing_ok"] and payload["domination_ok"]
    assert payload["p_indecomposable"]["3"] == ["0", "0", "1", "1"]
    assert payload["n"] == 5 and "n_max" not in payload

    # --n sets the size of the exhaustive check, and it is required
    code, out, err = run_cli(capsys, "census", "--mode", "monotonicity")
    assert code == 2 and out == ""
    assert err == "invperm census: need --config or (--n and --mode)\n"

    # so it is in a config file
    path = tmp_path / "mono.json"
    path.write_text(json.dumps({"mode": "monotonicity", "n": 5}))
    code, out, err = run_cli(capsys, "census", "--config", str(path))
    assert code == 0 and err == "" and json.loads(out)["n"] == 5


@pytest.mark.parametrize("n", ["1", "10"])
def test_census_monotonicity_size_guard_names_n(n, capsys):
    code, out, err = run_cli(capsys, "census", "--mode", "monotonicity", "--n", n)
    assert code == 2 and out == ""
    assert err == f"invperm census: monotonicity mode needs 2 <= n <= 9; got n={n}\n"


def test_census_monotonicity_refuses_the_fields_it_ignores(capsys, tmp_path):
    """The exhaustive check draws nothing, so a seed, trial count, points or
    parallelism other than the default are refused by name, from flags and
    from a config file; the defaults themselves are accepted."""
    code, out, err = run_cli(
        capsys, "census", "--mode", "monotonicity", "--n", "4",
        "--seed", "3", "--mu", "0", "--trials", "7",
    )
    assert code == 2 and out == ""
    assert err == (
        "invperm census: monotonicity mode checks every permutation and draws "
        "nothing; drop trials=7, seed=3, mu_list=[0.0]\n"
    )
    path = tmp_path / "mono.json"
    path.write_text(json.dumps({"mode": "monotonicity", "n": 4, "m_list": [2], "parallelism": 1}))
    code, out, err = run_cli(capsys, "census", "--config", str(path))
    assert code == 2 and out == "" and err.endswith("; drop m_list=[2]\n")

    code, out, err = run_cli(
        capsys, "census", "--mode", "monotonicity", "--n", "4", "--seed", "0", "--trials", "1000"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    payload.pop("wall_seconds")
    assert payload == json.loads(run_monotonicity_check(4).to_json())


def test_runtime_imports_no_scipy():
    """The package and its CLI load numpy alone: scipy is a test-only
    dependency."""
    code = (
        "import sys, invperm, invperm.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def _src_env():
    """The environment with this checkout's invperm first on the path."""
    import invperm

    src = str(Path(invperm.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_census_into_a_closed_pipe_exits_141_quietly():
    """A reader that closes stdout before the report is printed
    (``invperm census ... | head -1``) is no bad input: the CLI writes
    nothing to stderr and exits with 141 (128 + SIGPIPE), not 2."""
    code = "import sys; from invperm.cli import main; sys.exit(main())"
    argv = "census --n 200 --mode components --mu 0 --trials 5".split()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        env=_src_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # long before the child has imported numpy
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141 and err == b""


@pytest.mark.parametrize(
    "argv,files",
    [
        ("components --n 60 --m 100 --m 1700 --trials 40 --seed 3", ["components_n60_seed3"]),
        ("blocks --n 4000 --mu -2.5 --trials 25 --seed 1", ["blocks_n4000_seed1", ".csv"]),
        ("marked --n 20000 --mu -2 --trials 10 --seed 3", ["marked_n20000_seed3"]),
        ("monotonicity --n 4", ["monotonicity_n4_seed0"]),
    ],
)
def test_census_exit_code_and_report_files_in_every_mode(argv, files, capsys, tmp_path):
    """Exit 0 exactly when the report passed; --out writes the report (and
    the blocks CSV) under <mode>_n<n>_seed<seed>, n and seed as reported:
    the exhaustive monotonicity check reports seed 0."""
    from dataclasses import fields

    from invperm.cli import build_parser
    from invperm.experiments import RUNNERS, ExperimentConfig, judge

    words = ["census", "--mode", *argv.split()]
    code, out, _ = run_cli(capsys, *words, "--out", str(tmp_path))
    args = vars(build_parser().parse_args(words))
    report = judge(RUNNERS[args["mode"]](
        ExperimentConfig(**{f.name: args[f.name] for f in fields(ExperimentConfig)})
    ))
    assert code == (0 if report.passed else 1)
    stem, *others = files
    assert sorted(f.name for f in tmp_path.iterdir()) == [stem + ext for ext in (*others, ".json")]
    written = json.loads((tmp_path / f"{stem}.json").read_text())
    assert written == json.loads(out)
    written.pop("wall_seconds")
    for point in written.get("points", []):
        assert point.pop("sampler").keys() == {"head_size", "restarts", "build_s", "acceptance"}
    assert written == json.loads(report.to_json())
