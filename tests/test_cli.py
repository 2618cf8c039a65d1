"""The command-line interface: file formats, determinism, exit codes."""

import json

import pytest

from trimmeq.cli import main

PRIME = str((1 << 61) - 1)


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_gen_full_writes_invertible_matrix(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--w", "2", "--d", "3", "--mode", "full", "--seed", "1",
                 "--out", str(out)]) == 0
    data = _read(out)
    assert data["prime"] == PRIME
    M = data["payload"]["matrix"]
    assert len(M) == 12 and all(len(r) == 12 for r in M)
    from trimmeq.field import Fp
    from trimmeq.linalg import Mat

    assert Mat.from_rows(Fp(), M).is_invertible()


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        main(["gen", "--w", "2", "--d", "4", "--mode", "block", "--seed", "7",
              "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_algebra_mode(tmp_path):
    out = tmp_path / "alg.json"
    assert main(["gen", "--w", "2", "--d", "4", "--mode", "algebra", "--seed", "3",
                 "--out", str(out)]) == 0
    data = _read(out)
    basis = data["payload"]["basis"]
    assert len(basis) == 4
    assert all(len(E) == 4 and all(len(r) == 4 for r in E) for E in basis)


def test_solve_verify_roundtrip_trace(tmp_path):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    main(["gen", "--w", "2", "--d", "3", "--mode", "full", "--seed", "5", "--out", str(inst)])
    rc = main(["solve", str(inst), "--task", "trace", "--oracle", "w2",
               "--seed", "6", "--cert", str(cert)])
    assert rc == 0
    assert main(["verify", str(inst), str(cert), "--trials", "60", "--seed", "9"]) == 0


def test_solve_tensor_iso_with_planted_oracle(tmp_path):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    main(["gen", "--w", "2", "--d", "4", "--mode", "tensor", "--seed", "8", "--out", str(inst)])
    rc = main(["solve", str(inst), "--task", "tensor-iso", "--oracle", "planted",
               "--seed", "2", "--cert", str(cert)])
    assert rc == 0
    assert main(["verify", str(inst), str(cert), "--trials", "60", "--seed", "3"]) == 0


def test_solve_degree_reduce(tmp_path):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    main(["gen", "--w", "2", "--d", "5", "--mode", "block", "--seed", "4", "--out", str(inst)])
    rc = main(["solve", str(inst), "--task", "degree-reduce", "--oracle", "w2",
               "--seed", "1", "--cert", str(cert)])
    assert rc == 0
    assert main(["verify", str(inst), str(cert), "--trials", "60", "--seed", "2"]) == 0


def test_solve_fmai(tmp_path):
    inst = tmp_path / "alg.json"
    cert = tmp_path / "cert.json"
    main(["gen", "--w", "2", "--d", "4", "--mode", "algebra", "--seed", "11", "--out", str(inst)])
    rc = main(["solve", str(inst), "--task", "fmai", "--seed", "12", "--cert", str(cert)])
    assert rc == 0
    assert main(["verify", str(inst), str(cert)]) == 0


@pytest.mark.parametrize("task, gen, oracle", [
    ("trace", ["--w", "2", "--d", "3", "--mode", "full"], "w2"),
    ("tensor-iso", ["--w", "2", "--d", "4", "--mode", "tensor"], "planted"),
    ("fmai", ["--w", "2", "--d", "4", "--mode", "algebra"], "w2"),
])
def test_solve_writes_the_same_certificate_at_one_seed(tmp_path, task, gen, oracle):
    inst = tmp_path / "inst.json"
    main(["gen", *gen, "--seed", "5", "--out", str(inst)])
    certs = [tmp_path / "a.json", tmp_path / "b.json"]
    for cert in certs:
        assert main(["solve", str(inst), "--task", task, "--oracle", oracle,
                     "--seed", "6", "--cert", str(cert)]) == 0
    assert certs[0].read_bytes() == certs[1].read_bytes()


def test_corrupted_certificate_fails_verification(tmp_path):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    main(["gen", "--w", "2", "--d", "3", "--mode", "full", "--seed", "13", "--out", str(inst)])
    main(["solve", str(inst), "--task", "trace", "--oracle", "w2", "--seed", "14",
          "--cert", str(cert)])
    data = _read(cert)
    data["matrix"][0][0] = (data["matrix"][0][0] + 1) % ((1 << 61) - 1)
    with open(cert, "w") as fh:
        json.dump(data, fh)
    assert main(["verify", str(inst), str(cert), "--trials", "50", "--seed", "15"]) == 1


def test_tensor_explicit_instance(tmp_path):
    """Hand-written explicit tensors are accepted as instances."""
    from trimmeq.field import Fp
    from trimm_helpers import var_entry
    from trimmeq.trimm import TrimmShape, trimm_explicit

    field = Fp()
    sh = TrimmShape(2, 3)
    e = trimm_explicit(field, sh)
    terms = []
    for exp, c in e.terms.items():
        idx = [None] * 3
        for flat, ei in enumerate(exp):
            if ei:
                k, i, j = var_entry(sh, flat)
                idx[k] = [i, j]
        terms.append({"indices": idx, "coeff": str(c)})
    inst = tmp_path / "explicit.json"
    with open(inst, "w") as fh:
        json.dump({
            "format_version": 1, "prime": PRIME, "kind": "tensor-explicit",
            "w": 2, "d": 3, "seed": 0, "payload": {"terms": terms},
        }, fh)
    cert = tmp_path / "cert.json"
    rc = main(["solve", str(inst), "--task", "tensor-iso", "--oracle", "w2",
               "--seed", "1", "--cert", str(cert)])
    assert rc == 0
    assert main(["verify", str(inst), str(cert)]) == 0


def test_solve_fmai_diagonal_returns_no(tmp_path):
    """The commutative diagonal algebra yields exit code 1 with a gate."""
    inst = tmp_path / "diag.json"
    basis = [[[1 if (r == c == i) else 0 for c in range(4)] for r in range(4)]
             for i in range(4)]
    with open(inst, "w") as fh:
        json.dump({
            "format_version": 1, "prime": PRIME, "kind": "algebra",
            "w": 2, "d": 4, "seed": 0,
            "payload": {"m": 4, "r": 4, "basis": basis},
        }, fh)
    assert main(["solve", str(inst), "--task", "fmai", "--seed", "3"]) == 1


def test_missing_secret_is_an_error(tmp_path):
    inst = tmp_path / "inst.json"
    main(["gen", "--w", "2", "--d", "3", "--mode", "full", "--seed", "5", "--out", str(inst)])
    data = _read(inst)
    del data["secret"]
    with open(inst, "w") as fh:
        json.dump(data, fh)
    assert main(["solve", str(inst), "--task", "trace", "--oracle", "planted",
                 "--seed", "6"]) == 2


def _gen_full_instance(tmp_path):
    inst = tmp_path / "inst.json"
    main(["gen", "--w", "2", "--d", "3", "--mode", "full", "--seed", "5", "--out", str(inst)])
    return inst, _read(inst)


def _solve_exit_code(inst, capsys):
    capsys.readouterr()
    rc = main(["solve", str(inst), "--task", "trace", "--oracle", "w2", "--seed", "6"])
    assert "error:" in capsys.readouterr().err
    return rc


def test_solve_prints_the_run_report(tmp_path, capsys):
    inst, _ = _gen_full_instance(tmp_path)
    capsys.readouterr()
    assert main(["solve", str(inst), "--task", "trace", "--oracle", "w2", "--seed", "6"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"verdict", "gates_passed", "failed_gate", "pit_trials", "seed",
                        "wall_time_s"}
    assert out["verdict"] == "certified" and out["failed_gate"] is None
    assert out["gates_passed"][-1] == "certified" and out["seed"] == 6
    assert out["pit_trials"] > 0


def test_truncated_instance_is_an_input_error(tmp_path, capsys):
    inst, _ = _gen_full_instance(tmp_path)
    text = inst.read_text()
    inst.write_text(text[: len(text) // 2])
    assert _solve_exit_code(inst, capsys) == 2


def test_instance_missing_width_is_an_input_error(tmp_path, capsys):
    inst, data = _gen_full_instance(tmp_path)
    del data["w"]
    inst.write_text(json.dumps(data))
    assert _solve_exit_code(inst, capsys) == 2


def test_ragged_matrix_row_is_an_input_error(tmp_path, capsys):
    inst, data = _gen_full_instance(tmp_path)
    data["payload"]["matrix"][5].pop()
    inst.write_text(json.dumps(data))
    assert _solve_exit_code(inst, capsys) == 2


def test_selftest_subset(capsys):
    assert main(["selftest", "--only", "10"]) == 0
    out = capsys.readouterr().out
    assert "criterion 10" in out and "PASS" in out


def _prime_command(name, tmp_path):
    if name == "gen":
        return ["gen", "--w", "2", "--d", "3", "--mode", "full", "--out", str(tmp_path / "i.json")]
    return ["selftest", "--only", "10"]


def _exit_code(argv, capsys) -> int:
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert "--prime" in capsys.readouterr().err
    return stop.value.code


@pytest.mark.parametrize("name", ["gen", "selftest"])
def test_malformed_prime_flag_is_an_input_error(tmp_path, capsys, name):
    assert _exit_code([*_prime_command(name, tmp_path), "--prime", "abc"], capsys) == 2


@pytest.mark.parametrize("name", ["gen", "selftest"])
def test_malformed_prime_environment_is_an_input_error(tmp_path, monkeypatch, capsys, name):
    monkeypatch.setenv("TRIMMEQ_PRIME", "abc")
    assert _exit_code(_prime_command(name, tmp_path), capsys) == 2


def _set_residue(value):
    def mutate(data):
        data["payload"]["matrix"][0][0] = value
    return mutate


# Each of these was accepted (and certified) or crashed with exit 1 before
# the instance file had a schema check.
MALFORMED = {
    "width-as-string": lambda data: data.update(w="2"),
    "prime-not-decimal": lambda data: data.update(prime="abc"),
    "payload-not-object": lambda data: data.update(payload=[1, 2]),
    "unknown-format-version": lambda data: data.update(format_version=99),
    "fractional-residue": _set_residue(1.5),
    "negative-residue": _set_residue(-1),
    "residue-not-below-p": _set_residue(int(PRIME)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_instance_is_an_input_error(tmp_path, capsys, name):
    inst, data = _gen_full_instance(tmp_path)
    MALFORMED[name](data)
    inst.write_text(json.dumps(data))
    assert _solve_exit_code(inst, capsys) == 2


def test_certificate_of_another_format_version_is_an_input_error(tmp_path, capsys):
    inst, _ = _gen_full_instance(tmp_path)
    cert = tmp_path / "cert.json"
    assert main(["solve", str(inst), "--task", "trace", "--oracle", "w2", "--seed", "6",
                 "--cert", str(cert)]) == 0
    data = _read(cert)
    data["format_version"] = 99
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(inst), str(cert), "--trials", "20"]) == 2
    assert "error:" in capsys.readouterr().err
