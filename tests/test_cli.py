import dataclasses
import json
import os

import numpy as np
import pytest

from qcrelax.cli import CSV_HEADER, main


@pytest.fixture()
def inst(tmp_path):
    path = tmp_path / "inst.json"
    rc = main(
        ["generate", "lattice", "--nl", "3", "--m", "5", "--seed", "7", "-o", str(path)]
    )
    assert rc == 0
    return path


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for p in (a, b):
        main(["generate", "lattice", "--nl", "3", "--m", "4", "--seed", "1", "-o", str(p)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_out_of_range_sizes(tmp_path, capsys):
    out = str(tmp_path / "g.json")
    assert main(["generate", "lattice", "--nl", "1", "--m", "3", "-o", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "g.json").exists()


def test_generate_zerodiag(tmp_path):
    out = tmp_path / "z.json"
    rc = main(
        [
            "generate", "zerodiag", "--n", "6", "--m", "4",
            "--density", "0.5", "--seed", "1", "-o", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 6


def test_solve_json_record(inst, capsys):
    rc = main(["solve", str(inst), "--relax", "ssocp"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "Optimal"
    assert rec["cones"]["soc"] == 12  # 2 n_L (n_L - 1) for n_L = 3
    assert rec["objective"] is not None


def test_solve_csv_header_golden(inst, capsys):
    rc = main(["solve", str(inst), "--relax", "fsocp", "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == (
        "instance,relaxation,form,status,variables,constraints,"
        "nonneg,soc,psd,free,iterations,wall_time_s,objective,pres,dres,gap"
    )
    assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))


# variables, constraints, nonneg, soc, psd, free of each relaxation of `inst`
SIZE_GOLDEN = {
    "fsdp": "55,6,0,0,1,0",
    "ssdp": "45,24,0,0,7,0",
    "fsocp": "55,51,10,45,0,45",
    "ssocp": "22,18,10,12,0,12",
    "dual-fsocp": "141,55,5,45,0,1",
    "dual-ssocp": "43,22,6,12,0,1",
}


@pytest.mark.parametrize("relax", sorted(SIZE_GOLDEN))
def test_solve_csv_size_fields_golden(inst, capsys, relax):
    assert main(["solve", str(inst), "--relax", relax, "--csv"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    names = ("variables", "constraints", "nonneg", "soc", "psd", "free")
    assert ",".join(fields[k] for k in names) == SIZE_GOLDEN[relax]
    assert fields["relaxation"] == relax and fields["status"] == "Optimal"


def test_fsocp_ssocp_agree_via_cli(inst, capsys):
    objs = {}
    for relax in ("fsocp", "ssocp"):
        rc = main(["solve", str(inst), "--relax", relax])
        assert rc == 0
        objs[relax] = json.loads(capsys.readouterr().out)["objective"]
    ref = objs["fsocp"]
    assert abs(objs["fsocp"] - objs["ssocp"]) <= 1e-6 * (1 + abs(ref))


def test_emit_completion(inst, tmp_path, capsys):
    out = tmp_path / "comp.json"
    rc = main(
        ["solve", str(inst), "--relax", "ssocp", "--emit-completion", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    X = np.array(doc["rows"])
    assert X.shape == (10, 10)
    assert X[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(X, X.T)


def test_emit_completion_compact_is_upper_triangle_of_rows(inst, tmp_path, capsys):
    full, compact = tmp_path / "full.json", tmp_path / "compact.json"
    for out, extra in ((full, []), (compact, ["--compact"])):
        argv = ["solve", str(inst), "--relax", "ssocp", "--emit-completion", str(out)]
        assert main(argv + extra) == 0
    X = np.array(json.loads(full.read_text())["rows"])
    doc = json.loads(compact.read_text())
    assert doc["dim"] == X.shape[0]
    i, j = np.triu_indices(X.shape[0])
    nz = X[i, j] != 0.0
    want = [[int(a) + 1, int(b) + 1, float(v)] for a, b, v in zip(i[nz], j[nz], X[i, j][nz])]
    assert doc["upper"] == want


def test_emit_completion_wrong_relax_is_usage_error(inst, tmp_path, capsys):
    rc = main(
        ["solve", str(inst), "--relax", "fsdp", "--emit-completion",
         str(tmp_path / "x.json")]
    )
    assert rc == 2
    # reported before the solve: no run record
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_compare_table(inst, tmp_path):
    out = tmp_path / "table.csv"
    rc = main(
        ["compare", str(inst), "--relax", "fsdp,fsocp,ssocp", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER + ",agreement,fsocp_ssocp_time_ratio"
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.split(",")[-2] == "OK"


def test_compare_markdown(inst, tmp_path):
    out = tmp_path / "table.md"
    rc = main(["compare", str(inst), "--relax", "ssocp", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("| instance |")


def test_compare_empty_relax_list_usage_error(inst):
    assert main(["compare", str(inst), "--relax", ""]) == 2
    assert main(["compare", str(inst), "--relax", "nope"]) == 2


def test_compare_requires_instances(capsys):
    assert main(["compare", "--relax", "ssocp"]) == 2
    for sizes in ("3,x", "3,1"):  # not an integer; a lattice side below 2
        assert main(["compare", "--sweep-nl", sizes, "--relax", "ssocp"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_solve_missing_file_fails():
    assert main(["solve", "/nonexistent.json", "--relax", "ssocp"]) == 1


def test_solve_does_not_swallow_programming_errors(inst, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in the solver")

    monkeypatch.setattr("qcrelax.cli.solve", broken)
    with pytest.raises(RuntimeError, match="bug in the solver"):
        main(["solve", str(inst), "--relax", "ssocp"])


def test_export_missing_or_malformed_file_fails(tmp_path, capsys):
    out = str(tmp_path / "out.json")
    assert main(["export", str(tmp_path / "missing.json"), "--relax", "fsdp", "-o", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3}')
    assert main(["export", str(bad), "--relax", "fsdp", "-o", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_compare_removes_sweep_files_when_writing_out_fails(tmp_path, monkeypatch, capsys):
    import tempfile

    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(sweep_dir))
    out = tmp_path / "no-such-dir" / "table.csv"
    rc = main(["compare", "--sweep-nl", "3", "--m", "3", "--relax", "ssocp", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(sweep_dir.iterdir()) == []


def test_compare_sweep_rows_are_labelled_by_lattice_spec(tmp_path):
    out = tmp_path / "table.csv"
    argv = ["compare", "--sweep-nl", "3,4", "--m", "3", "--seed", "2", "--relax", "ssocp"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["lattice-nl3-m3-seed2", "lattice-nl4-m3-seed2"]


def test_compare_warns_on_a_missing_file_and_loads_each_file_once(
    inst, tmp_path, monkeypatch, capsys
):
    from qcrelax import cli

    loads = []
    load = cli.load_instance
    monkeypatch.setattr(cli, "load_instance", lambda path: loads.append(path) or load(path))
    missing = str(tmp_path / "missing.json")
    out = tmp_path / "table.csv"
    rc = main(["compare", missing, str(inst), "--relax", "fsocp,ssocp", "--out", str(out)])
    assert rc == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert len(warnings) == 1 and missing in warnings[0]
    rows = out.read_text().strip().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [[str(inst), "fsocp"], [str(inst), "ssocp"]]
    assert loads == [missing, str(inst)]


def test_compare_with_no_loadable_instance_fails(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    out = tmp_path / "table.csv"
    assert main(["compare", missing, "--relax", "ssocp", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"warning: cannot load {missing}")
    assert out.read_text().strip().splitlines() == [CSV_HEADER + ",agreement,fsocp_ssocp_time_ratio"]


def test_compare_fails_on_a_row_that_is_not_optimal(inst, tmp_path, monkeypatch):
    from qcrelax import cli

    solve = cli.solve
    monkeypatch.setattr(
        cli, "solve", lambda sf, cfg: dataclasses.replace(solve(sf, cfg), status="IterationLimit")
    )
    out = tmp_path / "table.csv"
    assert main(["compare", str(inst), "--relax", "ssocp", "--out", str(out)]) == 1
    (row,) = out.read_text().strip().splitlines()[1:]
    assert row.split(",")[:4] == [str(inst), "ssocp", "P", "IterationLimit"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2


def test_env_tolerance(inst, capsys, monkeypatch):
    monkeypatch.setenv("CONIC_SOLVER_TOL", "1e-6")
    rc = main(["solve", str(inst), "--relax", "ssocp"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "Optimal"
    for bad in ("tight", "-1e-6", "nan", "inf"):
        monkeypatch.setenv("CONIC_SOLVER_TOL", bad)
        for argv in (["solve", str(inst)], ["compare", str(inst)]):
            assert main(argv + ["--relax", "ssocp"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ")
    monkeypatch.delenv("CONIC_SOLVER_TOL")
    for bad in ("nan", "inf"):  # the flag is checked the same way
        for argv in (["solve", str(inst)], ["compare", str(inst)]):
            assert main(argv + ["--relax", "ssocp", "--tol", bad]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ")


def test_export_sdpa(inst, tmp_path):
    out = tmp_path / "prob.dat-s"
    rc = main(
        ["export", str(inst), "--relax", "fsdp", "--format", "sdpa", "-o", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert int(lines[0].split()[0]) >= 1
    rc = main(
        ["export", str(inst), "--relax", "ssocp", "--format", "sdpa",
         "-o", str(tmp_path / "bad.dat-s")]
    )
    assert rc == 2


def test_export_json(inst, tmp_path):
    out = tmp_path / "prob.json"
    rc = main(["export", str(inst), "--relax", "ssocp", "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert {"A", "b", "c", "cones", "form"} <= set(doc)


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


def test_unwritable_output_is_an_input_error_on_every_subcommand(inst, tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    gen = ["generate", "lattice", "--nl", "3", "--m", "5", "-o", str(missing / "x.json")]
    assert main(gen) == 1
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err)

    assert main(["export", str(inst), "--relax", "ssocp", "-o", str(missing / "p.json")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err)

    argv = ["solve", str(inst), "--relax", "ssocp", "--emit-completion", str(missing / "c.json")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["status"] == "Optimal"  # the run record still comes first
    assert _one_error_line(err)


def test_unwritable_output_ends_without_a_traceback(tmp_path):
    import subprocess
    import sys

    import qcrelax

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qcrelax.__file__))}
    out = str(tmp_path / "no-such-dir" / "x.json")
    argv = ["generate", "lattice", "--nl", "3", "--m", "5", "-o", out]
    proc = subprocess.run(
        [sys.executable, "-m", "qcrelax.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert proc.stdout == "" and _one_error_line(proc.stderr)


def test_compare_takes_a_repeated_relaxation_once(inst, tmp_path, monkeypatch):
    from qcrelax import cli

    calls = []
    solve = cli.solve
    monkeypatch.setattr(cli, "solve", lambda sf, cfg: calls.append(sf) or solve(sf, cfg))
    out = tmp_path / "table.csv"
    argv = ["compare", str(inst), "--relax", "ssocp,fsocp,ssocp", "--out", str(out)]
    assert main(argv) == 0
    assert len(calls) == 2
    rows = out.read_text().strip().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["ssocp", "fsocp"]


def test_compact_without_emit_completion_is_usage_error(inst, monkeypatch, capsys):
    from qcrelax import cli

    calls = []
    monkeypatch.setattr(cli, "solve", lambda sf, cfg: calls.append(sf))
    assert main(["solve", str(inst), "--relax", "ssocp", "--compact"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err)
    assert calls == []


def test_compare_homogenizes_each_instance_once(inst, tmp_path, monkeypatch):
    from qcrelax import cli

    calls = []
    homogenize = cli.homogenize
    monkeypatch.setattr(cli, "homogenize", lambda i: calls.append(i) or homogenize(i))
    out = tmp_path / "table.csv"
    argv = ["compare", str(inst), "--sweep-nl", "3", "--m", "3", "--relax", "fsocp,ssocp,ssdp"]
    assert main(argv + ["--out", str(out)]) == 0
    assert len(calls) == 2
    assert len(out.read_text().strip().splitlines()) == 1 + 2 * 3
