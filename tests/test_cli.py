import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

from luequiv import (
    DimProfile,
    FactorSet,
    RankOneReport,
    SearchConfig,
    Verdict,
    kron_all,
    load_matrix,
    save_matrix,
)
from luequiv.cli import EXIT_CODES, _config_from, _parse_args, _parsers, build_parser, main
from luequiv.equivalence import _gate_distance, check_equivalence
from luequiv.matfile import NEST_CHARS
from luequiv.oracle import haar_unitary, local_unitaries, random_density

from helpers import degenerate_plant, local_rotation, locally_mixed_qubits, near_product

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


def _check_json(capsys, a, b, *extra):
    rc = main(["check", str(a), str(b), "--json", *extra])
    return rc, json.loads(capsys.readouterr().out)


def test_check_not_found_exit_three(tmp_path, capsys):
    # Bell-diagonal vs diagonal: equal spectra, marginal spectra too far
    # apart for any witness, so no search runs; still exit 3, not 2
    lam = np.array([0.7, 0.15, 0.1, 0.05])
    bell = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]]
    ) / np.sqrt(2.0)
    save_matrix(tmp_path / "a.json", (bell * lam) @ bell.conj().T, dims=(2, 2))
    save_matrix(tmp_path / "b.json", np.diag(lam), dims=(2, 2))
    budget = ["--sweeps", "15", "--restarts", "3"]
    rc, doc = _check_json(capsys, tmp_path / "a.json", tmp_path / "b.json", *budget)
    assert rc == 3
    assert doc["status"] == "NOT_FOUND" and doc["path"] == "bound"
    assert doc["restarts_used"] == 0 and doc["witness"] is None
    rho = load_matrix(tmp_path / "a.json").density()
    assert doc["distance_lower"] > _gate_distance(rho)
    # rho against rho*: equal marginal spectra, so the bound rung passes it
    # on, and the cycle products of the marginal eigenframes put every
    # product unitary beyond the gate
    rho = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 73)
    save_matrix(tmp_path / "c.json", rho.matrix, dims=(2, 2, 2))
    save_matrix(tmp_path / "d.json", rho.matrix.conj(), dims=(2, 2, 2))
    rc, doc = _check_json(capsys, tmp_path / "c.json", tmp_path / "d.json", *budget)
    assert rc == 3
    assert doc["status"] == "NOT_FOUND" and doc["path"] == "invariant"
    assert doc["restarts_used"] == 0 and doc["objective_history"] == []
    assert doc["cuts"] is None and doc["best_objective"] is None
    assert doc["distance_lower"] > _gate_distance(load_matrix(tmp_path / "c.json").density())


def test_check_bound_verdict_text_and_json(tmp_path, capsys):
    rho = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 71)
    lam = np.linalg.eigvalsh(rho.matrix)[::-1]
    rotated = random_density(rho.profile, lam, 72)
    save_matrix(tmp_path / "a.json", rho.matrix, dims=(2, 2, 2))
    save_matrix(tmp_path / "b.json", rotated.matrix, dims=(2, 2, 2))
    rc, doc = _check_json(capsys, tmp_path / "a.json", tmp_path / "b.json")
    assert rc == 3
    assert doc["path"] == "bound" and doc["restarts_used"] == 0
    assert doc["objective_history"] == []
    assert doc["cuts"] is None and doc["best_objective"] is None and doc["phases"] is None
    assert doc["distance_lower"] > _gate_distance(rho)
    rc = main(["check", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 3
    assert lines[:2] == ["verdict: NOT_FOUND", "path: bound"]
    assert lines[2] == f"distance_lower: {doc['distance_lower']:.3e}"
    assert lines[3].startswith("note: no search ran; the marginal spectra")
    assert len(lines) == 4


def test_check_invariant_verdict_text_and_json(tmp_path, capsys):
    # rho against rho* on six qubits: the invariant rung ends the check, and
    # the report gives distance_lower and says no search ran
    rho = random_density(DimProfile((2,) * 6), "generic-nondegenerate", 73)
    save_matrix(tmp_path / "a.json", rho.matrix, dims=(2,) * 6)
    save_matrix(tmp_path / "b.json", rho.matrix.conj(), dims=(2,) * 6)
    rc, doc = _check_json(capsys, tmp_path / "a.json", tmp_path / "b.json")
    assert rc == 3
    assert doc["status"] == "NOT_FOUND" and doc["path"] == "invariant"
    assert doc["restarts_used"] == 0 and doc["objective_history"] == []
    assert doc["cuts"] is None and doc["best_objective"] is None and doc["phases"] is None
    assert doc["distance_lower"] > _gate_distance(load_matrix(tmp_path / "a.json").density())
    rc = main(["check", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 3
    assert lines[:2] == ["verdict: NOT_FOUND", "path: invariant"]
    assert lines[2] == f"distance_lower: {doc['distance_lower']:.3e}"
    assert lines[3].startswith("note: no search ran; the cycle products")
    assert len(lines) == 4


def test_check_site_of_dimension_one_exit_three(tmp_path, capsys):
    # rho against rho* with a site of dimension 1 ends on the invariant rung,
    # as the same matrix does on (2, 2), not on an error
    rho = random_density(DimProfile((2, 2)), "generic-nondegenerate", 73)
    save_matrix(tmp_path / "a.json", rho.matrix, dims=(2, 1, 2))
    save_matrix(tmp_path / "b.json", rho.matrix.conj(), dims=(2, 1, 2))
    rc = main(["check", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--json"])
    captured = capsys.readouterr()
    assert rc == 3
    lines = captured.out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["status"] == "NOT_FOUND" and doc["path"] == "invariant"
    assert "error:" not in captured.out + captured.err


def test_check_lift_verdicts_text(tmp_path, capsys):
    # a locally-mixed state against its conjugate: every marginal is I/2, so
    # the lift rung ends the check, and the report says no search ran and
    # prints no cut
    rho = locally_mixed_qubits(3, 5)
    save_matrix(tmp_path / "a.json", rho.matrix, dims=(2, 2, 2))
    save_matrix(tmp_path / "b.json", rho.matrix.conj(), dims=(2, 2, 2))
    rc = main(["check", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 3
    assert lines[:2] == ["verdict: NOT_FOUND", "path: lift"]
    assert lines[2].startswith("note: no search ran; the lifted rank-one system shows")
    assert len(lines) == 3
    # a locally-mixed plant: the point read off the lifted kernel verifies
    rho = locally_mixed_qubits(3, 0)
    save_matrix(tmp_path / "c.json", rho.matrix, dims=(2, 2, 2))
    save_matrix(tmp_path / "d.json", local_rotation(rho, 100).matrix, dims=(2, 2, 2))
    rc = main(["check", str(tmp_path / "c.json"), str(tmp_path / "d.json")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[:2] == ["verdict: EQUIVALENT", "path: lift"]
    assert lines[2].startswith("note: no search ran; the coset point read off")
    assert [line.split(":")[0] for line in lines[3:5]] == ["cut 1", "cut 2"]


def test_check_json_reports_distance_lower_on_every_path(tmp_path, capsys):
    prefix = _gen(tmp_path, "pair-equivalent", "--dims", "2,2,2", "--seed", "7")
    capsys.readouterr()
    rc, doc = _check_json(capsys, f"{prefix}_a.json", f"{prefix}_b.json")
    assert rc == 0 and doc["path"] == "frame"
    assert 0.0 <= doc["distance_lower"] <= 1e-12
    prefix = _gen(tmp_path, "pair-spectrum-mismatch", "--dims", "2,2,2", "--seed", "3")
    capsys.readouterr()
    rc, doc = _check_json(capsys, f"{prefix}_a.json", f"{prefix}_b.json")
    assert rc == 2 and doc["path"] is None
    a, b = (load_matrix(f"{prefix}_{s}.json").matrix for s in "ab")
    want = np.linalg.norm(np.linalg.eigvalsh(a) - np.linalg.eigvalsh(b))
    assert doc["distance_lower"] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2)], ids=["I/4", "I/16"])
def test_check_maximally_mixed_state_exit_zero(tmp_path, capsys, dims):
    # one D-fold block: any product unitary is a witness, and the search
    # verdict still reports the exact test at every cut
    d = int(np.prod(dims))
    rho = np.eye(d) / d
    save_matrix(tmp_path / "mix.json", rho, dims=dims)
    mix = str(tmp_path / "mix.json")
    rc = main(["check", mix, mix, "--json", *FAST])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["status"] == "EQUIVALENT" and doc["path"] == "coset-block"
    assert [c["cut"] for c in doc["cuts"]] == list(range(1, len(dims)))
    assert doc["best_objective"] is not None
    factors = [
        np.array([complex(*z) for z in f["data"]]).reshape(f["shape"])
        for f in doc["witness"]["factors"]
    ]
    assert [u.shape for u in factors] == [(2, 2)] * len(dims)
    w = kron_all(factors)
    assert np.linalg.norm(w @ w.conj().T - np.eye(d)) <= 1e-8
    assert np.linalg.norm(w @ rho @ w.conj().T - rho) <= 1e-8


def test_check_degenerate_fallback_notes_block_search(tmp_path, capsys):
    from luequiv.oracle import make_degenerate_pair

    prefix = _gen(tmp_path, "paper-example", "--a", "2", "--b", "3", "--c", "4")
    # the gen report is dropped; its warning is one stderr line
    assert "warning: parameters (2.0, 3.0, 4.0) give a degenerate spectrum" in (
        capsys.readouterr().err
    )
    rc = main(["check", f"{prefix}_a.json", f"{prefix}_b.json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "path: coset-block" in out
    # the block criterion is exact for any number of parties: no caveat
    assert "block-unitary search" in out and "unproven" not in out
    # a degenerate pair the frame point decides ran no search: no note
    sample = make_degenerate_pair(DimProfile((2, 2, 2)), 5)
    save_matrix(tmp_path / "a.json", sample.rho.matrix, dims=(2, 2, 2))
    save_matrix(tmp_path / "b.json", sample.rho_prime.matrix, dims=(2, 2, 2))
    rc = main(["check", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "path: frame" in out and "note:" not in out


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
    return err


def test_check_parse_error_exit_one(tmp_path, capsys):
    for content in (
        b"{nope",
        b'{"dims":[1,2],"data":[["1","0"],["0","0"],["0","0"],["1","0"]]}',
        b'{"dims":[1,2],"data":[[null,0],[0,0],[0,0],[1,0]]}',
        b'{"dims":["a",2],"data":[[1,0],[0,0]]}',
        b'{"dims":[1,2],"data":[[Infinity,0],[0,0],[0,0],[1,0]]}',
    ):
        _check_bad_file_exit_one(tmp_path, capsys, content)


def _dims_file(diagonal) -> bytes:
    n = len(diagonal)
    data = [[float(diagonal[i // n]) if i % (n + 1) == 0 else 0.0, 0.0] for i in range(n * n)]
    return json.dumps({"dims": [2, n // 2], "data": data}).encode()


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[[1, 0], [0, 0], [0, 0], [1, 0]]", "must be a JSON object"),
        (b'{"shape":[2,2],"data":[[1,0],[0,0],[0,0]]}', "data length 3 != shape 2x2"),
        (_dims_file([0.0] * 4), "non-positive trace"),
        (_dims_file([-1.0] * 4), "non-positive trace"),
        # orjson, the one decoder, rejects NaN and 1e400
        (b'{"dims":[1,2],"data":[[NaN,0.5],[0,0],[0,0],[1,0]]}', "not valid JSON"),
        (b'{"dims":[1,2],"data":[[1e400,0.5],[0,0],[0,0],[1,0]]}', "not valid JSON"),
        (b'{"dims":[1,2],"data":[[true,0.5],[0,0],[0,0],[1,0]]}', "entries must be JSON numbers"),
    ],
    ids=["json-array", "shape-mismatch", "zero-matrix", "minus-identity",
         "nan-entry", "1e400-entry", "bool-entry"],
)
def test_check_rejected_input_is_one_error_line(tmp_path, capsys, content, message):
    assert message in _check_bad_file_exit_one(tmp_path, capsys, content)


def test_check_deeply_nested_file_exit_one(tmp_path, capsys):
    # a text NEST_CHARS levels deep is refused by the nesting guard before
    # orjson reads it: an error line, no traceback
    content = b'{"dims":[2,2],"data":' + b"[" * NEST_CHARS
    assert "nested too deeply" in _check_bad_file_exit_one(tmp_path, capsys, content)


HEAD = '{"dims":[2,2],"data":'
# 200,000 "],[" that open nothing: in a label, or between real [0] pairs
LABEL_HEAD = '{"dims":[2,2],"label":"' + "],[" * 200_000 + '","data":'
PAIRS_HEAD = HEAD + "[" + "[0]," * 200_000


def _orjson_refuses_depth() -> bool:
    """Whether the installed orjson refuses a document 1,025 levels deep
    itself, as releases after 3.8.3 document."""
    try:
        orjson.loads(b"[" * 1025 + b"]" * 1025)
    except orjson.JSONDecodeError:
        return True
    return False


ORJSON_REFUSES_DEPTH = _orjson_refuses_depth()


@pytest.mark.parametrize(
    "head, level, depth, tail, message",
    [
        (HEAD, "[]", 200_000, "}", "nested too deeply"),
        (HEAD, '{"":}', 200_000, "}", "nested too deeply"),
        (HEAD, "[]", (NEST_CHARS - 100) // 2, "}", "pairs"),
        (HEAD, '{"":}', (NEST_CHARS - 100) // 5, "}", "pairs"),
        (LABEL_HEAD, "[]", 200_000, "}", "nested too deeply"),
        (PAIRS_HEAD, "[]", 200_000, "]}", "nested too deeply"),
    ],
    ids=["arrays-200000", "objects-200000", "arrays-below-guard", "objects-below-guard",
         "arrays-200000-after-label-separators", "arrays-200000-after-pairs"],
)
def test_check_complete_deeply_nested_document_exit_one(
    tmp_path, head, level, depth, tail, message
):
    # a complete document 200,000 deep would crash orjson 3.8.3 (SIGSEGV,
    # exit 139), so the nesting guard refuses it, also behind 200,000 "],["
    # that the guard takes off its count; just below the guard orjson 3.8.3
    # decodes it and the structure check rejects it, where an orjson that
    # refuses 1,025 levels itself gives its own error.  A child process, so
    # that a crash fails this test alone
    if message == "pairs" and ORJSON_REFUSES_DEPTH:
        message = "not valid JSON"
    opening, closing = level[:-1], level[-1]
    deep = tmp_path / "deep.json"
    deep.write_text(head + opening * depth + "0" + closing * depth + tail)
    proc = subprocess.run(
        [sys.executable, "-m", "luequiv.cli", "check", str(deep), str(deep)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr[-300:]
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


def test_check_non_ascii_file_exit_one(tmp_path, capsys):
    # fails while reading the file, before parse_matrix sees it; the offset
    # is that of the first byte above 127
    err = _check_bad_file_exit_one(tmp_path, capsys, '{"dims":[1,2],"label":"\u00e9"}'.encode())
    assert err == f"error: {tmp_path / 'bad.json'}: not ASCII: ordinal not in range(128) at byte 23\n"


@pytest.mark.parametrize(
    "command",
    [["check", "{good}", "{bad}"], ["check", "{bad}", "{good}"],
     ["realign", "{bad}", "--cut", "1"], ["factor", "{bad}"]],
    ids=["check-second", "check-first", "realign", "factor"],
)
def test_shape_file_where_dims_belong_names_the_file(tmp_path, capsys, command):
    good, bad = tmp_path / "good.json", tmp_path / "shape.json"
    save_matrix(good, np.eye(4) / 4, dims=(2, 2))
    save_matrix(bad, np.eye(4) / 4)
    rc = main([a.format(good=good, bad=bad) for a in command])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: file does not declare a multipartite dims header\n"


@pytest.mark.parametrize("bad_first", [True, False], ids=["first", "second"])
@pytest.mark.parametrize(
    "matrix, fault",
    [
        (np.eye(4) / 4 + np.diag([0.1, 0.0, 0.0], 1),
         "is not Hermitian: ||H - H^dag||_F = 1.414e-01"),
        (np.diag([0.6, 0.5, 0.1, -0.2]), "has negative eigenvalue -2.000e-01"),
    ],
    ids=["not-hermitian", "negative-eigenvalue"],
)
def test_check_names_the_file_of_a_faulty_state(
    tmp_path, capsys, matrix, fault, bad_first
):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_matrix(good, np.eye(4) / 4, dims=(2, 2))
    save_matrix(bad, matrix, dims=(2, 2))
    files = [bad, good] if bad_first else [good, bad]
    rc = main(["check", *map(str, files)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: density matrix {fault}\n"


@pytest.mark.parametrize(
    "args",
    [["a", "b", "--bogus"], ["a", "b", "--sweeps", "abc"], ["a"]],
    ids=["unknown-flag", "bad-value", "missing-file"],
)
def test_check_usage_error_exit_one(capsys, args):
    # argparse's own exit code 2 would read as INEQUIVALENT_SPECTRUM
    rc = main(["check", *args])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1



@pytest.mark.parametrize(
    "args",
    [
        ["check", "{tmp}/missing.json", "{tmp}/missing.json"],
        ["check", "{tmp}", "{tmp}"],
        ["gen", "pair-equivalent", "--dims", "2,x", "-o", "{tmp}/g"],
        ["gen", "pair-equivalent", "--dims", "4", "-o", "{tmp}/g"],
        ["gen", "pair-equivalent", "-o", "{tmp}/g"],
    ],
    ids=["missing-file", "directory", "unparsable-dims", "one-dim", "no-dims"],
)
def test_input_error_is_one_error_line(tmp_path, capsys, args):
    rc = main([a.format(tmp=tmp_path) for a in args])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_check_defaults_are_the_search_config_defaults():
    assert _config_from(build_parser().parse_args(["check", "a", "b"])) == SearchConfig()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--tol-spec", "0", "spec_tol"),
        # spec_tol also groups eigenvalues: at 2 or inf every one joins one block
        ("--tol-spec", "2", "spec_tol"),
        ("--tol-spec", "inf", "spec_tol"),
        ("--sweeps", "-3", "sweeps"),
        ("--restarts", "-2", "restarts"),
        ("--seed", "-1", "seed"),
        # orjson writes no integer of 64 bits or more
        ("--seed", str(2**64), "seed"),
    ],
)
def test_check_invalid_search_setting_exit_one(tmp_path, capsys, flag, value, field):
    # none may reach a verdict: --tol-spec 0 would make any spectrum mismatch conclusive
    prefix = _gen(tmp_path, "pair-equivalent", "--dims", "2,2,2", "--seed", "7")
    capsys.readouterr()  # drop the gen report
    rc = main(["check", f"{prefix}_a.json", f"{prefix}_b.json", flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1


def test_check_json_contract(tmp_path, capsys):
    prefix = _gen(tmp_path, "pair-equivalent", "--dims", "2,2,2", "--seed", "7")
    capsys.readouterr()  # drop the gen report
    rc = main(["check", f"{prefix}_a.json", f"{prefix}_b.json", "--json", *FAST])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "EQUIVALENT"
    assert len(doc["phases"]) == 8 and doc["phases"][0] == 0.0
    assert doc["witness_residual"] < 1e-8
    assert doc["degenerate_fallback"] is False
    # the local-eigenframe guess verifies on a planted pair: no search runs,
    # and a product by construction has no cut reports or surrogate
    assert doc["path"] == "frame"
    assert doc["restarts_used"] == 0
    assert doc["objective_history"] == []
    assert doc["cuts"] is None and doc["best_objective"] is None
    assert doc["witness"]["factorization_residual"] == 0.0
    assert [f["shape"] for f in doc["witness"]["factors"]] == [[2, 2]] * 3
    # the paper's pair falls back to the search, whose verdict reports its cuts
    prefix = _gen(tmp_path, "paper-example", "--a", "3", "--b", "5", "--c", "7")
    capsys.readouterr()
    rc = main(["check", f"{prefix}_a.json", f"{prefix}_b.json", "--json", *FAST])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "EQUIVALENT" and doc["path"] == "coset"
    assert [c["cut"] for c in doc["cuts"]] == [1, 2]
    assert all({"sigma1", "sigma2", "ratio", "rank_one"} <= set(c) for c in doc["cuts"])
    assert doc["best_objective"] == sum(c["ratio"] ** 2 for c in doc["cuts"])
    assert doc["witness"] is not None and doc["witness_residual"] < 1e-8
    assert [f["shape"] for f in doc["witness"]["factors"]] == [[2, 2]] * 3
    assert doc["restarts_used"] >= 1 and doc["objective_history"] != []


def _reference_doc(v) -> dict:
    """The check --json document of a Verdict, built field by field from it."""
    return {
        "status": v.status.value,
        "phases": None if v.phases is None else [float(t) for t in v.phases],
        "cuts": None
        if v.cuts is None
        else [
            {"cut": r.cut, "sigma1": r.sigma1, "sigma2": r.sigma2, "ratio": r.ratio,
             "rank_one": r.rank_one}
            for r in v.cuts
        ],
        "witness_residual": v.witness_residual,
        "best_objective": v.best_objective,
        "degenerate_fallback": v.degenerate_fallback,
        "seed": v.seed,
        "restarts_used": v.restarts_used,
        "path": v.path,
        "distance_lower": v.distance_lower,
        "objective_history": [[i, f] for i, f in v.objective_history],
        "witness": None
        if v.witness is None
        else {
            "factors": [
                {"shape": list(f.shape),
                 "data": [[float(z.real), float(z.imag)] for z in f.reshape(-1)]}
                for f in v.witness.factors
            ],
            "factorization_residual": v.witness.factorization_residual,
        },
    }


def test_check_json_keeps_no_memory_alive(tmp_path, capsys):
    # orjson 3.8.3 never frees what a default hook returns: a hook that wrote
    # the witness factors kept about six blocks alive a check
    prefix = _gen(tmp_path, "pair-equivalent", "--dims", "2,2,2", "--seed", "7")
    argv = ["check", f"{prefix}_a.json", f"{prefix}_b.json", "--json"]

    def run(n):
        for _ in range(n):
            assert main(argv) == 0
            capsys.readouterr()

    run(300)  # the interpreter's free lists and caches fill first
    gc.collect()
    before = sys.getallocatedblocks()
    run(300)
    gc.collect()
    assert sys.getallocatedblocks() - before < 300


def _bitwise(x):
    """x with every float replaced by its hex spelling, so == compares bits
    (and 0 != 0.0, -0.0 != 0.0)."""
    if isinstance(x, dict):
        return {k: _bitwise(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_bitwise(v) for v in x]
    return float.hex(x) if isinstance(x, float) else x


def _verdict_files(tmp_path, path: str):
    """Two matrix files whose check ends on path, and the extra check flags."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    if path in ("frame", "coset"):
        kind = {"frame": ["pair-equivalent", "--dims", "2,2,2", "--seed", "7"],
                "coset": ["paper-example", "--a", "3", "--b", "5", "--c", "7"]}[path]
        prefix = _gen(tmp_path, *kind)
        return f"{prefix}_a.json", f"{prefix}_b.json", FAST
    if path == "bound":
        lam = np.array([0.7, 0.15, 0.1, 0.05])
        bell = np.array(
            [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]]
        ) / np.sqrt(2.0)
        save_matrix(a, (bell * lam) @ bell.conj().T, dims=(2, 2))
        save_matrix(b, np.diag(lam), dims=(2, 2))
    elif path == "invariant":
        rho = random_density(DimProfile((2, 2, 2)), "generic-nondegenerate", 73)
        save_matrix(a, rho.matrix, dims=(2, 2, 2))
        save_matrix(b, rho.matrix.conj(), dims=(2, 2, 2))
    else:  # an EQUIVALENT on "lift": phases, cuts and a witness
        rho = locally_mixed_qubits(3, 0)
        save_matrix(a, rho.matrix, dims=(2, 2, 2))
        save_matrix(b, local_rotation(rho, 100).matrix, dims=(2, 2, 2))
    return str(a), str(b), []


@pytest.mark.parametrize("path", ["frame", "bound", "invariant", "lift", "coset"])
def test_check_json_is_one_line_with_the_verdict_bitwise(tmp_path, capsys, path):
    a, b, extra = _verdict_files(tmp_path, path)
    capsys.readouterr()  # drop the gen report
    rc = main(["check", a, b, "--json", *extra])
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    config = _config_from(build_parser().parse_args(["check", a, b, *extra]))
    verdict = check_equivalence(load_matrix(a).density(), load_matrix(b).density(), config)
    assert verdict.path == path and rc == EXIT_CODES[verdict.status]
    assert _bitwise(json.loads(out)) == _bitwise(_reference_doc(verdict))


def _readme_column(header: str, column: str) -> list[list[str]]:
    """Row by row, the backticked values in one column of the README table
    whose header row starts with ``header``."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    index = [c.strip() for c in lines[start].strip("|").split("|")].index(column)
    cells = []
    for row in lines[start + 2:]:
        if not row.startswith("|"):
            break
        cells.append(re.findall(r"`([^`]+)`", row.strip("|").split("|")[index]))
    return cells


def _ladder_paths() -> set[str]:
    """The backticked values in the `path` column of README's ladder table."""
    return set().union(*_readme_column("| rung |", "`path`"))


def test_readme_ladder_and_check_docstring_name_every_path(tmp_path):
    # one input per path, the five above and a block-search plant: README's
    # ladder table and check_equivalence's docstring, the rungs' one
    # description, name exactly the paths the checks take
    seen = set()
    for path in ("frame", "bound", "invariant", "lift", "coset"):
        (tmp_path / path).mkdir()
        a, b, extra = _verdict_files(tmp_path / path, path)
        config = _config_from(build_parser().parse_args(["check", a, b, *extra]))
        seen.add(check_equivalence(load_matrix(a).density(), load_matrix(b).density(), config).path)
    rho, rho_prime = degenerate_plant((2, 2), 0, tie=3)
    seen.add(check_equivalence(rho, rho_prime, SearchConfig(sweeps=40, restarts=6)).path)
    assert seen == {"bound", "invariant", "frame", "lift", "coset", "coset-block"}
    assert _ladder_paths() == seen
    for path in seen:
        assert f'"{path}"' in check_equivalence.__doc__, path


def test_readme_json_table_names_every_check_json_field(tmp_path, capsys):
    # an EQUIVALENT on "lift" fills every field: cuts, witness and its factors
    a, b, extra = _verdict_files(tmp_path, "lift")
    assert main(["check", a, b, "--json", *extra]) == 0
    doc = json.loads(capsys.readouterr().out)
    keys = [*doc, *(f"cuts[].{k}" for k in doc["cuts"][0])]
    keys += [f"witness.{k}" for k in doc["witness"]]
    keys += [f"witness.factors[].{k}" for k in doc["witness"]["factors"][0]]
    fields = _readme_column("| field |", "field")
    assert all(len(names) == 1 for names in fields)
    assert sorted(name for (name,) in fields) == sorted(keys)
    # the library's names are the document's, in its order
    assert list(doc) == [f.name for f in dataclasses.fields(Verdict)]
    assert list(doc["cuts"][0]) == [f.name for f in dataclasses.fields(RankOneReport)]
    assert list(doc["witness"]) == [f.name for f in dataclasses.fields(FactorSet)]


def test_readme_flag_table_names_each_commands_flags():
    # README's flag table against each command's own parser: row by row, the
    # long options of every command but --help, and no others
    readme = {}
    rows = zip(_readme_column("| command |", "command"), _readme_column("| command |", "flags"))
    for (command,), flags in rows:
        readme.setdefault(command, set()).update(flags)
    parsed = {
        name: {s for a in p._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for name, p in _parsers()[1].items()
    }
    assert readme == parsed
    assert "--tol-rank" in parsed["factor"] and "--tol-rank" not in parsed["check"]


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
    doc = json.loads(capsys.readouterr().out)
    assert doc["path"] == "frame" and doc["witness_residual"] <= 1e-8


def test_gen_generator_error_exit_one(tmp_path, capsys):
    rc = main(["gen", "pair-equivalent", "--dims", "2,0", "-o", str(tmp_path / "g")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["--a", "nan"], id="nan"),
        pytest.param(["--a", "inf"], id="inf"),
        # the trace 2 + sum(p + 1/p) overflows, or a 1/p does: refused before
        # numpy forms it, so no RuntimeWarning and no all-zero state on disk
        pytest.param(["--a", "1e308", "--b", "1e308"], id="trace-overflow"),
        pytest.param(["--a", "3e-309"], id="inverse-overflow"),
        # finite when summed left to right, inf in numpy's pairwise order
        pytest.param(
            ["--a", "1.7976931348623157e308", "--b", "6e291", "--c", "6e291"],
            id="trace-overflow-pairwise",
        ),
    ],
)
def test_gen_paper_example_non_finite_exit_one(tmp_path, capsys, args):
    rc = main(["gen", "paper-example", *args, "-o", str(tmp_path / "g")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "error: Unable to allocate 7.28 TiB for an array\n"),
        # what an allocation in C code raises: no message of its own
        (MemoryError(), "error: out of memory\n"),
    ],
    ids=["numpy", "bare"],
)
def test_gen_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, exc, line):
    # numpy's MemoryError for an allocation the machine refuses; raised here
    # without allocating, since an overcommitting kernel could grant it
    def refuse(profile, seed):
        raise exc

    monkeypatch.setattr("luequiv.cli.make_equivalent_pair", refuse)
    rc = main(["gen", "pair-equivalent", "--dims", "1000,1000", "-o", str(tmp_path / "g")])
    assert rc == 1
    assert capsys.readouterr().err == line
    assert not list(tmp_path.iterdir())


def test_check_trace_warning_is_one_line(tmp_path, capsys):
    rho = random_density(DimProfile((2, 2)), "generic-nondegenerate", 3).matrix
    save_matrix(tmp_path / "a.json", 3.0 * rho, dims=(2, 2))
    save_matrix(tmp_path / "b.json", rho, dims=(2, 2))
    rc = main(["check", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert rc == 0
    assert capsys.readouterr().err == "warning: density matrix trace 3 != 1; renormalizing\n"


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


def test_gen_negative_seed_exit_one(tmp_path, capsys):
    args = ["gen", "pair-equivalent", "--dims", "2,2", "-o", str(tmp_path / "g"), "--seed", "-1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be non-negative, got -1\n"
    assert not list(tmp_path.iterdir())


def test_gen_seed_beyond_64_bits_exit_one(tmp_path, capsys):
    # orjson would read the seed back as a double, so check could not load the files
    args = ["gen", "pair-equivalent", "--dims", "2,2", "-o", str(tmp_path / "g")]
    assert main([*args, "--seed", str(2**64)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: seed must lie in [-2**63, 2**64), got {2**64}\n"
    assert not list(tmp_path.iterdir())
    assert main([*args, "--seed", str(2**64 - 1)]) == 0
    capsys.readouterr()
    assert main(["check", str(tmp_path / "g_a.json"), str(tmp_path / "g_b.json")]) == 0


def test_gen_seed_env_var(tmp_path, monkeypatch):
    # LU_EQUIV_SEED is not read: without --seed, gen draws from seed 0
    p1 = str(tmp_path / "env")
    p2 = str(tmp_path / "flag")
    monkeypatch.setenv("LU_EQUIV_SEED", "21")
    assert main(["gen", "pair-equivalent", "--dims", "2,2", "-o", p1]) == 0
    assert main(["gen", "pair-equivalent", "--dims", "2,2", "--seed", "0", "-o", p2]) == 0
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


def test_realign_unit_site_prints_zero_sigma2(tmp_path, capsys):
    # a (1, 4) operator realigns to a single row: there is no second singular value
    save_matrix(tmp_path / "u.json", np.eye(4), dims=(1, 4))
    rc = main(["realign", str(tmp_path / "u.json"), "--cut", "1", "-o", str(tmp_path / "r.json")])
    assert rc == 0
    assert "sigma2=0.000000000000e+00" in capsys.readouterr().out


def test_gen_spectrum_mismatch_of_one_dimension_exit_one(tmp_path, capsys):
    # a unit-trace state with D = 1 has no mismatched partner: one error line,
    # no traceback and no files
    rc = main(["gen", "pair-spectrum-mismatch", "--dims", "1,1", "-o", str(tmp_path / "g")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dimension" in err
    assert list(tmp_path.iterdir()) == []


def test_realign_of_realigned_output_exit_one(tmp_path, capsys):
    # realign output carries a shape, not dims, so it has no cut to realign
    save_matrix(tmp_path / "id.json", np.eye(4), dims=(2, 2))
    out = str(tmp_path / "re.json")
    assert main(["realign", str(tmp_path / "id.json"), "--cut", "1", "-o", out]) == 0
    capsys.readouterr()
    assert main(["realign", out, "--cut", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_realign_bad_cut_exit_one(tmp_path, capsys):
    save_matrix(tmp_path / "id.json", np.eye(4), dims=(2, 2))
    rc = main(["realign", str(tmp_path / "id.json"), "--cut", "2"])
    assert rc == 1
    assert "cut" in capsys.readouterr().err


def test_realign_non_finite_entry_exit_one(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"dims":[2,2],"data":[[NaN,0]' + ",[0,0]" * 15 + "]}")
    rc = main(["realign", str(bad), "--cut", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    assert out.count("rank_one=True") == 2
    assert out.splitlines()[-1].startswith("reconstruction residual: ")
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
    assert "\nnot decomposable: cut 1 has ratio " in capsys.readouterr().out


def test_factor_near_product_at_loose_tolerance(tmp_path):
    v = near_product((2, 2, 2), 1e-4, np.random.default_rng(89))
    save_matrix(tmp_path / "v.json", v, dims=(2, 2, 2))
    proc = subprocess.run(
        [sys.executable, "-m", "luequiv.cli", "factor", str(tmp_path / "v.json"),
         "--tol-rank", "1e-3", "-o", str(tmp_path / "f")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.count("rank_one=True") == 2
    for i in (1, 2, 3):
        assert load_matrix(str(tmp_path / f"f{i}.json")).matrix.shape == (2, 2)


@pytest.mark.parametrize("value", ["1", "0", "nan"])
def test_factor_bad_tol_rank_names_the_flag_before_reading_the_file(tmp_path, capsys, value):
    # a flag error, not an error in a file's content: it names --tol-rank and
    # no file, and comes before the file is read or tested for unitarity
    save_matrix(tmp_path / "n.json", np.diag([1.0, 2.0, 3.0, 4.0]), dims=(2, 2))
    for path in (tmp_path / "n.json", tmp_path / "missing.json"):
        rc = main(["factor", str(path), "--tol-rank", value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --tol-rank must lie in (0, 1), got ")
        assert err.count("\n") == 1 and str(tmp_path) not in err


def test_factor_non_unitary_exit_one(tmp_path, capsys):
    save_matrix(tmp_path / "n.json", np.diag([1.0, 2.0, 3.0, 4.0]), dims=(2, 2))
    rc = main(["factor", str(tmp_path / "n.json")])
    assert rc == 1
    err = capsys.readouterr().err
    path = tmp_path / "n.json"
    assert err.startswith(f"error: {path}: factor_full input is not unitary")
    assert err.count("\n") == 1


def test_factor_unwritable_output_exit_one(tmp_path, capsys):
    save_matrix(tmp_path / "v.json", np.eye(4), dims=(2, 2))
    rc = main(["factor", str(tmp_path / "v.json"), "-o", str(tmp_path / "no" / "f")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_console_script_is_cli_main():
    # the installed luequiv runs cli.main, which every check in this module
    # runs, in process or as python -m luequiv.cli; read with a regex, since
    # tomllib is missing on Python 3.10
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    scripts = re.findall(r'^\s*"?([\w.-]+)"?\s*=\s*"([^"]*)"', section.group(1), re.M)
    assert scripts == [("luequiv", "luequiv.cli:main")]


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


def test_main_reuses_one_parser_across_calls(tmp_path, capsys):
    # the parser is built once; each call still parses its own flags, and
    # a flag of one call leaves no trace in the next
    assert build_parser() is build_parser()
    prefix = _gen(tmp_path, "paper-example")
    capsys.readouterr()
    files = [f"{prefix}_a.json", f"{prefix}_b.json"]
    assert main(["check", *files, "--json", "--seed", "4", *FAST]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 4
    assert main(["check", *files, "--json", *FAST]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0
    assert main(["check", *files, *FAST]) == 0
    assert capsys.readouterr().out.startswith("verdict: EQUIVALENT")
    assert main(["check", *files, "--bogus"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: luequiv" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--json"], ["--seed", "1", "check"]])
def test_main_without_a_command_is_one_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_main_help_lists_every_command_and_each_command_has_its_own(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{check,realign,factor,gen}" in capsys.readouterr().out
    for command in ("check", "realign", "factor", "gen"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: luequiv {command}")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "a", "b"],
        ["check", "a", "--json", "b", "--seed", "3", "--tol-spec", "1e-6"],
        ["check", "--sweeps", "5", "--", "a", "b"],
        ["realign", "a", "--cut", "2", "-o", "c"],
        ["factor", "a", "--tol-rank", "1e-5"],
        ["gen", "paper-example", "--a", "2"],
    ],
)
def test_main_parses_a_command_as_the_root_parser_would(argv):
    # main hands the arguments after a command's name to that command's own
    # parser: the root parser's namespace, less the command's name
    root = vars(build_parser().parse_args(argv))
    assert root.pop("command") == argv[0]
    assert vars(_parse_args(argv)) == root


def test_check_into_a_closed_pipe_exits_one_without_traceback(tmp_path):
    prefix = _gen(tmp_path, "paper-example")
    proc = subprocess.Popen(
        [sys.executable, "-m", "luequiv.cli", "check", f"{prefix}_a.json", f"{prefix}_b.json",
         "--json", *FAST],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # the reader goes away before the child writes: its numpy import alone
    # takes longer than this
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err


def test_main_into_a_closed_pipe_returns_one_in_process(tmp_path, capsys, monkeypatch):
    # the write fails once the verdict is flushed; the handler sends the rest
    # of stdout to devnull, so closing the pipe's file afterwards cannot fail
    prefix = _gen(tmp_path, "paper-example")
    capsys.readouterr()
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as pipe, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", pipe)
        rc = main(["check", f"{prefix}_a.json", f"{prefix}_b.json", "--json", *FAST])
    assert rc == 1
    assert capsys.readouterr().err == ""
