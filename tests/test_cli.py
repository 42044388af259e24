import json

import pytest

from invperm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_and_table_cache(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "count", "4", "2")
    assert code == 0 and out.strip() == "5"

    cache = str(tmp_path / "t.bin")
    code, out, _ = run_cli(capsys, "table", "--max-n", "10", "--out", cache)
    assert code == 0

    code, out, _ = run_cli(capsys, "count", "10", "20", "--table", cache)
    assert code == 0
    from invperm.counting import build_table

    assert out.strip() == str(build_table(10).count(10, 20))

    code, _, err = run_cli(capsys, "count", "99", "5", "--table", cache)
    assert code == 2 and "cover" in err


def test_count_rejects_truncated_cache(tmp_path, capsys):
    cache = tmp_path / "t.bin"
    code, _, _ = run_cli(capsys, "table", "--max-n", "10", "--out", str(cache))
    assert code == 0
    cache.write_bytes(cache.read_bytes()[:-5])
    code, out, err = run_cli(capsys, "count", "10", "20", "--table", str(cache))
    assert code == 2 and out == "" and "truncated" in err
    code, _, err = run_cli(capsys, "count", "4", "2", "--table", str(tmp_path / "no"))
    assert code == 2 and "cannot read" in err


def test_count_rejects_cache_with_short_row(tmp_path, capsys):
    from invperm.counting import InversionTable, build_table, save_table

    full = build_table(8)
    rows = [[1]] + [full.row(k) for k in range(1, 9)]
    rows[6] = rows[6][:-3]
    cache = str(tmp_path / "bad.bin")
    save_table(InversionTable(rows), cache)
    code, out, err = run_cli(capsys, "count", "6", "15", "--table", cache)
    assert code == 2 and out == ""
    assert err == "cannot read table cache: cache row 6 has 13 entries, expected 16\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        "sample --n 0 --m 0",
        "count 0 0",
        "table --max-n 0 --out F",
        "params --n 2 --mu 0",
        "blocks --perm 1,1",
        "invseq --to-perm 0,5",
        "invseq --from-perm 2,2",
        "rho --n 1 --m 0",
        "rho --n 4 --m 99",
        "count 100000 1000000000",
        "table --max-n 100000 --out F",
        "census --n 60",
        "census --config missing.json",
        "params --n 1000 --mu inf",
        "params --n 1000 --mu nan",
        "census --n 1000 --mode components --mu inf --trials 2",
        "table --max-n 5 --out no/such/dir/x",
        "census --mode monotonicity --n 5 --n-max 1",
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


def test_census_config_with_head_size_exits_2(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    cfg = {"n": 60, "mode": "components", "m_list": [100], "head_size": 4}
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "census", "--config", str(path))
    assert code == 2 and out == "" and "head_size" in err


def test_census_monotonicity_mode(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--mode", "monotonicity", "--n", "5", "--n-max", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nondecreasing_ok"] and payload["domination_ok"]
    assert payload["p_indecomposable"]["3"] == ["0", "0", "1", "1"]


@pytest.mark.parametrize(
    "argv,files",
    [
        ("components --n 60 --m 100 --m 1700 --trials 40 --seed 3", ["components_n60_seed3"]),
        ("blocks --n 4000 --mu -2.5 --trials 25 --seed 1", ["blocks_n4000_seed1", ".csv"]),
        ("marked --n 20000 --mu -2 --trials 10 --seed 3", ["marked_n20000_seed3"]),
        ("monotonicity --n 5 --n-max 4", ["monotonicity_n4_seed0"]),
    ],
)
def test_census_exit_code_and_report_files_in_every_mode(argv, files, capsys, tmp_path):
    """Exit 0 exactly when the report passed; --out writes the report (and
    the blocks CSV) under <mode>_n<n>_seed<seed>, n and seed as reported:
    the exhaustive monotonicity check reports n = n_max and seed 0."""
    from dataclasses import fields

    from invperm.cli import build_parser
    from invperm.experiments import RUNNERS, ExperimentConfig

    words = ["census", "--mode", *argv.split()]
    code, out, _ = run_cli(capsys, *words, "--out", str(tmp_path))
    args = vars(build_parser().parse_args(words))
    report = RUNNERS[args["mode"]](
        ExperimentConfig(**{f.name: args[f.name] for f in fields(ExperimentConfig)})
    )
    assert code == (0 if report.passed else 1)
    stem, *others = files
    assert sorted(f.name for f in tmp_path.iterdir()) == [stem + ext for ext in (*others, ".json")]
    written = json.loads((tmp_path / f"{stem}.json").read_text())
    assert written == json.loads(out)
    written.pop("wall_seconds")
    assert written == json.loads(report.to_json())
