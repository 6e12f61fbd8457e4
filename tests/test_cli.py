import json
import subprocess
import sys

import numpy as np

from luequiv import DimProfile, kron_all, load_matrix, save_matrix
from luequiv.cli import main
from luequiv.oracle import haar_unitary, local_unitaries

FAST = ["--sweeps", "40", "--restarts", "6"]


def _gen(tmp_path, kind, *extra):
    prefix = str(tmp_path / "g")
    rc = main(["gen", kind, "-o", prefix, *extra])
    assert rc == 0
    return prefix


def test_check_paper_example_exit_zero(tmp_path, capsys):
    prefix = _gen(tmp_path, "paper-example", "--a", "3", "--b", "5", "--c", "7")
    rc = main(["check", f"{prefix}_a.json", f"{prefix}_b.json", *FAST])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: EQUIVALENT" in out
    assert "witness factor U3" in out
    assert "witness residual" in out


def test_check_same_file_twice(tmp_path):
    prefix = _gen(tmp_path, "pair-equivalent", "--dims", "2,2", "--seed", "5")
    rc = main(["check", f"{prefix}_a.json", f"{prefix}_a.json", *FAST])
    assert rc == 0


def test_check_spectrum_mismatch_exit_two(tmp_path, capsys):
    prefix = _gen(tmp_path, "pair-spectrum-mismatch", "--dims", "2,2,2", "--seed", "3")
    rc = main(["check", f"{prefix}_a.json", f"{prefix}_b.json", *FAST])
    assert rc == 2
    assert "INEQUIVALENT_SPECTRUM" in capsys.readouterr().out


def test_check_not_found_exit_three(tmp_path):
    lam = np.array([0.7, 0.15, 0.1, 0.05])
    bell = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]]
    ) / np.sqrt(2.0)
    save_matrix(tmp_path / "a.json", (bell * lam) @ bell.conj().T, dims=(2, 2))
    save_matrix(tmp_path / "b.json", np.diag(lam), dims=(2, 2))
    rc = main(["check", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
               "--sweeps", "15", "--restarts", "3"])
    assert rc == 3


def test_check_degenerate_unsupported_exit_four(tmp_path, capsys):
    save_matrix(tmp_path / "mix.json", np.eye(4) / 4.0, dims=(2, 2))
    rc = main(["check", str(tmp_path / "mix.json"), str(tmp_path / "mix.json"), *FAST])
    assert rc == 4
    assert "DEGENERATE_UNSUPPORTED" in capsys.readouterr().out


def test_check_degenerate_fallback_notes_block_search(tmp_path, capsys):
    from luequiv.oracle import make_degenerate_pair

    sample = make_degenerate_pair(DimProfile((2, 2, 2)), 5)
    save_matrix(tmp_path / "a.json", sample.rho.matrix, dims=(2, 2, 2))
    save_matrix(tmp_path / "b.json", sample.rho_prime.matrix, dims=(2, 2, 2))
    rc = main(["check", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "block-unitary search" in out and "unproven" in out


def test_check_dims_mismatch_exit_one(tmp_path, capsys):
    save_matrix(tmp_path / "a.json", np.eye(4) / 4.0, dims=(2, 2))
    save_matrix(tmp_path / "b.json", np.eye(8) / 8.0, dims=(2, 2, 2))
    rc = main(["check", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def _check_bad_file_exit_one(tmp_path, capsys, content: bytes):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    rc = main(["check", str(bad), str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_check_parse_error_exit_one(tmp_path, capsys):
    for content in (
        b"{nope",
        b'{"dims":[1,2],"data":[["1","0"],["0","0"],["0","0"],["1","0"]]}',
        b'{"dims":[1,2],"data":[[null,0],[0,0],[0,0],[1,0]]}',
        b'{"dims":["a",2],"data":[[1,0],[0,0]]}',
    ):
        _check_bad_file_exit_one(tmp_path, capsys, content)


def test_check_non_ascii_file_exit_one(tmp_path, capsys):
    # fails while reading the file, before parse_matrix sees it
    _check_bad_file_exit_one(tmp_path, capsys, '{"dims":[1,2],"label":"\u00e9"}'.encode())


def test_check_json_contract(tmp_path, capsys):
    prefix = _gen(tmp_path, "pair-equivalent", "--dims", "2,2,2", "--seed", "7")
    capsys.readouterr()  # drop the gen report
    rc = main(["check", f"{prefix}_a.json", f"{prefix}_b.json", "--json", *FAST])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "EQUIVALENT"
    assert len(doc["phases"]) == 8
    assert [c["cut"] for c in doc["cuts"]] == [1, 2]
    assert all({"sigma1", "sigma2", "ratio", "rank_one"} <= set(c) for c in doc["cuts"])
    assert doc["witness_residual"] < 1e-8
    assert doc["witness"] is not None
    assert doc["degenerate_fallback"] is False
    assert doc["restarts_used"] >= 1
    assert isinstance(doc["objective_history"], list)


def test_gen_paper_example_files_match_literal_matrices(tmp_path):
    prefix = _gen(tmp_path, "paper-example", "--a", "3", "--b", "5", "--c", "7")
    a, b, c = 3.0, 5.0, 7.0
    first = np.diag([1, 1 / a, 1 / b, 1 / c, c, b, a, 1]).astype(complex)
    first[0, 7] = first[7, 0] = -1
    second = np.diag([1, a, b, c, 1 / c, 1 / b, 1 / a, 1]).astype(complex)
    second[0, 7] = second[7, 0] = 1
    trace = first.trace().real
    got_a = load_matrix(f"{prefix}_a.json")
    got_b = load_matrix(f"{prefix}_b.json")
    assert got_a.dims == (2, 2, 2) and got_b.dims == (2, 2, 2)
    assert np.allclose(got_a.matrix, first / trace, atol=1e-15)
    assert np.allclose(got_b.matrix, second / trace, atol=1e-15)


def test_gen_deterministic_bytes(tmp_path):
    p1 = str(tmp_path / "x")
    p2 = str(tmp_path / "y")
    assert main(["gen", "pair-equivalent", "--dims", "2,2,2", "--seed", "7", "-o", p1]) == 0
    assert main(["gen", "pair-equivalent", "--dims", "2,2,2", "--seed", "7", "-o", p2]) == 0
    for suffix in ["_a.json", "_b.json", "_u1.json", "_u2.json", "_u3.json"]:
        with open(p1 + suffix, "rb") as fa, open(p2 + suffix, "rb") as fb:
            assert fa.read() == fb.read()


def test_gen_planted_factors_verify(tmp_path):
    prefix = _gen(tmp_path, "pair-equivalent", "--dims", "2,2", "--seed", "11")
    rho = load_matrix(f"{prefix}_a.json").matrix
    rho_p = load_matrix(f"{prefix}_b.json").matrix
    w = kron_all([load_matrix(f"{prefix}_u{i}.json").matrix for i in (1, 2)])
    assert np.linalg.norm(w @ rho @ w.conj().T - rho_p) < 1e-12


def test_gen_planted_pair_of_64_levels_checks_equivalent(tmp_path, capsys):
    prefix = _gen(tmp_path, "pair-equivalent", "--dims", "4,4,4", "--seed", "1")
    capsys.readouterr()
    rc = main(["check", f"{prefix}_a.json", f"{prefix}_b.json", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["witness_residual"] <= 1e-8


def test_gen_generator_error_exit_one(tmp_path, capsys):
    rc = main(["gen", "pair-equivalent", "--dims", "2,0", "-o", str(tmp_path / "g")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_spectrum_mismatch_pair_of_128_levels_checks_inequivalent(tmp_path, capsys):
    # lambda_2 of 128 levels is below 2e-2, so the shift shrinks to lambda_2 / 2
    prefix = _gen(tmp_path, "pair-spectrum-mismatch", "--dims", "8,16")
    capsys.readouterr()
    rc = main(["check", f"{prefix}_a.json", f"{prefix}_b.json", "--json"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["status"] == "INEQUIVALENT_SPECTRUM"


def test_gen_unwritable_output_exit_one(tmp_path, capsys):
    rc = main(["gen", "pair-equivalent", "--dims", "2,2", "-o", str(tmp_path / "no" / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_gen_seed_env_var(tmp_path, monkeypatch):
    p1 = str(tmp_path / "env")
    p2 = str(tmp_path / "flag")
    monkeypatch.setenv("LU_EQUIV_SEED", "21")
    assert main(["gen", "pair-equivalent", "--dims", "2,2", "-o", p1]) == 0
    monkeypatch.delenv("LU_EQUIV_SEED")
    assert main(["gen", "pair-equivalent", "--dims", "2,2", "--seed", "21", "-o", p2]) == 0
    with open(p1 + "_a.json", "rb") as fa, open(p2 + "_a.json", "rb") as fb:
        assert fa.read() == fb.read()


def test_realign_identity(tmp_path, capsys):
    save_matrix(tmp_path / "id.json", np.eye(4), dims=(2, 2))
    out = tmp_path / "re.json"
    rc = main(["realign", str(tmp_path / "id.json"), "--cut", "1", "-o", str(out)])
    assert rc == 0
    report = capsys.readouterr().out
    assert float(report.split("ratio=")[1].split()[0]) < 1e-12
    m = load_matrix(out).matrix
    assert m.shape == (4, 4)
    assert np.array_equal(m, np.outer([1, 0, 0, 1], [1, 0, 0, 1]))


def test_realign_kron_reports_rank_one(tmp_path, capsys):
    rng = np.random.default_rng(31)
    v = np.kron(haar_unitary(2, rng), haar_unitary(3, rng))
    save_matrix(tmp_path / "v.json", v, dims=(2, 3))
    rc = main(["realign", str(tmp_path / "v.json"), "--cut", "1", "-o", str(tmp_path / "o.json")])
    assert rc == 0
    out = capsys.readouterr().out
    ratio = float(out.split("ratio=")[1].split()[0])
    assert ratio < 1e-12


def test_realign_reference_witness_pattern(tmp_path):
    from helpers import WITNESS_SIGNS, reference_cut1, reference_v

    v = reference_v(WITNESS_SIGNS.astype(complex))
    save_matrix(tmp_path / "v.json", v, dims=(2, 2, 2))
    out = tmp_path / "re.json"
    rc = main(["realign", str(tmp_path / "v.json"), "--cut", "1", "-o", str(out)])
    assert rc == 0
    got = load_matrix(out).matrix
    want = reference_cut1(WITNESS_SIGNS.astype(complex))
    assert got.shape == (4, 16)
    assert np.array_equal(np.abs(got) > 1e-12, np.abs(want) > 1e-12)
    assert np.allclose(got, want, atol=1e-12)


def test_realign_bad_cut_exit_one(tmp_path, capsys):
    save_matrix(tmp_path / "id.json", np.eye(4), dims=(2, 2))
    rc = main(["realign", str(tmp_path / "id.json"), "--cut", "2"])
    assert rc == 1
    assert "cut" in capsys.readouterr().err


def test_realign_unwritable_output_exit_one(tmp_path, capsys):
    save_matrix(tmp_path / "id.json", np.eye(4), dims=(2, 2))
    out = str(tmp_path / "no" / "re.json")
    rc = main(["realign", str(tmp_path / "id.json"), "--cut", "1", "-o", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_factor_product_writes_factors(tmp_path, capsys):
    factors = local_unitaries(DimProfile((2, 2, 2)), 17)
    save_matrix(tmp_path / "v.json", kron_all(factors), dims=(2, 2, 2))
    rc = main(["factor", str(tmp_path / "v.json"), "-o", str(tmp_path / "f")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "residual" in out
    prod = kron_all([load_matrix(str(tmp_path / f"f{i}.json")).matrix for i in (1, 2, 3)])
    assert np.linalg.norm(prod - kron_all(factors)) < 1e-9


def test_factor_bipartite(tmp_path):
    factors = local_unitaries(DimProfile((2, 3)), 19)
    save_matrix(tmp_path / "v.json", kron_all(factors), dims=(2, 3))
    rc = main(["factor", str(tmp_path / "v.json"), "-o", str(tmp_path / "f")])
    assert rc == 0
    for i, d in [(1, 2), (2, 3)]:
        assert load_matrix(str(tmp_path / f"f{i}.json")).matrix.shape == (d, d)


def test_factor_entangling_fails_at_cut_one(tmp_path, capsys):
    cnot = np.zeros((4, 4))
    cnot[0, 0] = cnot[1, 1] = cnot[2, 3] = cnot[3, 2] = 1
    save_matrix(tmp_path / "w.json", np.kron(cnot, np.eye(2)), dims=(2, 2, 2))
    rc = main(["factor", str(tmp_path / "w.json")])
    assert rc == 2
    assert "cut 1" in capsys.readouterr().out


def test_factor_non_unitary_exit_one(tmp_path, capsys):
    save_matrix(tmp_path / "n.json", np.diag([1.0, 2.0, 3.0, 4.0]), dims=(2, 2))
    rc = main(["factor", str(tmp_path / "n.json")])
    assert rc == 1
    assert "unitary" in capsys.readouterr().err


def test_factor_unwritable_output_exit_one(tmp_path, capsys):
    save_matrix(tmp_path / "v.json", np.eye(4), dims=(2, 2))
    rc = main(["factor", str(tmp_path / "v.json"), "-o", str(tmp_path / "no" / "f")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_console_entry_point_smoke(tmp_path):
    save_matrix(tmp_path / "id.json", np.eye(4), dims=(2, 2))
    proc = subprocess.run(
        [sys.executable, "-m", "luequiv.cli", "realign", str(tmp_path / "id.json"),
         "--cut", "1", "-o", str(tmp_path / "o.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sigma1" in proc.stdout
