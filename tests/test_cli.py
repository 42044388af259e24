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

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"n": 60, "mode": "components", "bogus": 1}))
    code, _, err = run_cli(capsys, "census", "--config", str(unknown))
    assert code == 2


def test_census_monotonicity_mode(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--mode", "monotonicity", "--n", "5", "--n-max", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nondecreasing_ok"] and payload["domination_ok"]
    assert payload["p_indecomposable"]["3"] == ["0", "0", "1", "1"]
