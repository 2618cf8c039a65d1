"""Command-line front end: instance generation, pipeline runs, independent
verification, and the acceptance selftest.

Instance and certificate files are JSON with a fixed key order so that
identical flags produce byte-identical files.  The header carries
{format_version, prime (decimal string), kind, w, d, seed}; payloads hold
matrices of decimal residues.  The optional "secret" section is read only
under --oracle planted.  Exit codes: 0 = witness certified, 1 = "No",
2 = error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InputError, TrimmeqError
from .field import DEFAULT_PRIME, Fp, Rng
from .fmai import AlgebraInput, fmai_solve
from .linalg import Mat, assemble_block_diagonal
from .oracles import PlantedDetOracle, QuadraticDetOracle, mmti_oracle
from .poly import ComposedBlackbox, ExplicitBlackbox, MPoly
from .reduction import tensor_iso_to_det, trace_equivalence
from .report import RunReport
from .tensor import degree_d_to_3
from .trimm import (
    TrimmShape,
    plant_instance,
    trimm_blackbox,
    var_index,
    verify_witness,
)

FORMAT_VERSION = 1


def _dump(path: str, obj: dict):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


class _Document(dict):
    """A JSON object read from an input file; a missing key is an input error."""

    def __missing__(self, key):
        raise InputError(f"missing key {key!r}")


def _load(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh, object_hook=_Document)
        except json.JSONDecodeError as e:
            raise InputError(f"{path} is not valid JSON: {e}") from None


def _need(ok: bool, message: str):
    if not ok:
        raise InputError(message)


def _is_int(x, lo: int = 0, hi: int | None = None) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and lo <= x and (hi is None or x < hi)


def _check_matrices(Ms, p: int, count: int, rows: int, cols: int, what: str):
    _need(isinstance(Ms, list) and len(Ms) == count and all(
        isinstance(M, list) and len(M) == rows and all(
            isinstance(r, list) and len(r) == cols and all(_is_int(x, 0, p) for x in r) for r in M)
        for M in Ms), f"{what}: expected {count} matrices of {rows} x {cols} integers in [0, p)")


def _check_header(doc: dict, keys: tuple[str, ...]) -> int:
    """format_version, prime and kind, and positive integers at keys; returns p."""
    _need(_is_int(doc["format_version"]) and doc["format_version"] == FORMAT_VERSION,
          f"unsupported format_version {doc['format_version']!r}")
    _need(isinstance(doc["prime"], str) and doc["prime"].isdecimal(), "prime must be a decimal string")
    _need(all(_is_int(doc[key], 1) for key in keys), f"{'/'.join(keys)} must be positive integers")
    return int(doc["prime"])


def _check_instance(data: dict) -> Fp:
    """The schema of an instance: key types, format_version, integer
    residues in [0, p) and matrix shapes against (w, d)."""
    p = _check_header(data, ("w", "d"))
    w, d, kind = data["w"], data["d"], data["kind"]
    secret = [data["secret"]] if data.get("secret") is not None else []
    for part in [data["payload"]] + secret:
        _need(isinstance(part, dict), "payload and secret must be JSON objects")
        if kind == "full":
            _check_matrices([part["matrix"]], p, 1, w * w * d, w * w * d, "matrix")
        elif kind in ("block", "tensor"):
            _check_matrices(part["blocks"], p, d, w * w, w * w, "blocks")
        elif kind == "algebra":
            _need(_is_int(part["m"], 1) and _is_int(part["r"], 1), "m/r must be positive integers")
            _check_matrices(part["basis"], p, part["r"], part["m"], part["m"], "basis")
        elif kind == "tensor-explicit":
            _need(isinstance(part["terms"], list), "terms must be a list")
            for term in part["terms"]:
                _need(isinstance(term, dict), "each term must be a JSON object")
                _check_matrices([term["indices"]], w + 1, 1, d, 2, "term indices")
                c = term["coeff"]
                _need(min(map(min, term["indices"])) >= 1 and (_is_int(c, 0, p) or (
                    isinstance(c, str) and c.isdecimal() and int(c) < p)),
                      "term indices must lie in 1..w and coefficients in [0, p)")
        else:
            raise InputError(f"unknown instance kind {kind!r}")
    return Fp(p)


def _check_certificate(cert: dict, data: dict):
    """The certificate's header and residues, and its shape against the instance."""
    kind = cert["kind"]
    p = _check_header(cert, ("w",) if kind == "algebra-iso" else ("w", "d"))
    _need(cert["prime"] == data["prime"], "certificate/instance modulus mismatch")
    w = cert["w"]
    if kind == "algebra-iso":
        _need(isinstance(cert["images"], dict), "images must be a JSON object")
        images = [cert["images"][f"{i},{j}"] for i in range(1, w + 1) for j in range(1, w + 1)]
        return _check_matrices(images, p, w * w, w, w, "images")
    _need(kind in ("witness-full", "witness-blocks"), f"unknown certificate kind {kind!r}")
    _need((w, cert["d"]) == (data["w"], data["d"]), "certificate (w, d) does not match the instance")
    n, d = w * w * data["d"], data["d"]
    if kind == "witness-full":
        _check_matrices([cert["matrix"]], p, 1, n, n, "matrix")
    else:
        _check_matrices(cert["blocks"], p, d, w * w, w * w, "blocks")


def _mat_to_rows(M: Mat):
    return M.rows.tolist()


def _document(field: Fp, kind: str, **fields) -> dict:
    """An instance or certificate: the shared header, then the given fields."""
    return {"format_version": FORMAT_VERSION, "prime": str(field.p), "kind": kind, **fields}


def cmd_gen(args) -> int:
    field = Fp(args.prime)
    rng = Rng(args.seed)
    header = _document(field, args.mode, w=args.w, d=args.d, seed=args.seed)
    if args.mode == "algebra":
        from .acceptance import _planted_full_algebra

        A = _planted_full_algebra(field, args.w, rng)
        header["payload"] = {
            "m": A.m,
            "r": A.dim,
            "basis": [_mat_to_rows(E) for E in A.basis],
        }
    else:
        shape = TrimmShape(args.w, args.d)
        field.check_char_bound(args.w, args.d)
        if args.mode == "full":
            inst = plant_instance(field, shape, rng, mode="full")
            header["payload"] = {"matrix": _mat_to_rows(inst.A)}
            header["secret"] = {"matrix": _mat_to_rows(inst.A)}
        else:  # block or tensor; argparse admits no other mode
            inst = plant_instance(field, shape, rng, mode="block")
            blocks = [_mat_to_rows(B) for B in inst.blocks]
            header["payload"] = {"blocks": blocks}
            header["secret"] = {"blocks": blocks}
    _dump(args.out, header)
    print(f"wrote {args.out}")
    return 0


def _blackbox_from_instance(field: Fp, data: dict):
    """(blackbox f, shape) for polynomial kinds."""
    shape = TrimmShape(data["w"], data["d"])
    field.check_char_bound(shape.w, shape.d)
    payload = data["payload"]
    kind = data["kind"]
    if kind == "full":
        A = Mat.from_rows(field, payload["matrix"])
        return ComposedBlackbox(trimm_blackbox(field, shape), A), shape
    if kind in ("block", "tensor"):
        blocks = [Mat.from_rows(field, b) for b in payload["blocks"]]
        A = assemble_block_diagonal(blocks)
        return ComposedBlackbox(trimm_blackbox(field, shape), A), shape
    if kind == "tensor-explicit":
        poly = MPoly.zero(field, shape.n)
        for term in payload["terms"]:
            exp = [0] * shape.n
            for k, (i, j) in enumerate(term["indices"]):
                exp[var_index(shape, k, i, j)] += 1
            poly.add_term(tuple(exp), int(term["coeff"]))
        return ExplicitBlackbox(poly), shape
    raise TrimmeqError(f"instance kind {kind!r} is not a polynomial instance")


def _planted_oracle_from_secret(field: Fp, data: dict, shape: TrimmShape):
    secret = data.get("secret")
    if secret is None:
        raise TrimmeqError("--oracle planted requires the instance's secret section")
    if "matrix" in secret:
        A = Mat.from_rows(field, secret["matrix"])
    else:
        A = assemble_block_diagonal([Mat.from_rows(field, b) for b in secret["blocks"]])
    return PlantedDetOracle(field, shape, A)


def cmd_solve(args) -> int:
    data = _load(args.instance)
    field = _check_instance(data)
    rng = Rng(args.seed)
    with RunReport(seed=args.seed) as report:
        cert: dict | None = None
        if args.task == "fmai":
            payload = data["payload"]
            basis = [Mat.from_rows(field, b) for b in payload["basis"]]
            algebra = AlgebraInput(field, basis)
            det = QuadraticDetOracle(field)
            mmti = lambda h, w, r: mmti_oracle(h, w, det, r)
            iso = fmai_solve(algebra, mmti, rng)
            if iso is not None:
                images = {f"{i+1},{j+1}": _mat_to_rows(iso.images[(i, j)])
                          for i in range(iso.w) for j in range(iso.w)}
                cert = _document(field, "algebra-iso", w=iso.w, images=images)
        else:
            f, shape = _blackbox_from_instance(field, data)
            if args.oracle == "planted":
                det = _planted_oracle_from_secret(field, data, shape)
            else:
                det = QuadraticDetOracle(field)
            if args.task == "trace":
                res = trace_equivalence(f, shape.d, lambda ww: det if ww == det.w else None, rng)
                if res is not None:
                    w, A = res
                    cert = _document(field, "witness-full", w=w, d=shape.d, matrix=_mat_to_rows(A))
            elif args.task == "tensor-iso":
                Bs = tensor_iso_to_det(f, shape.w, shape.d, det, rng)
                if Bs is not None:
                    cert = _blocks_cert(field, shape, Bs)
            else:  # degree-reduce; argparse admits no other task
                mmti = lambda h, w, r: mmti_oracle(h, w, det, r)
                Bs = degree_d_to_3(f, shape.w, shape.d, mmti, rng)
                if Bs is not None:
                    cert = _blocks_cert(field, shape, Bs)

    verdict = "certified" if cert is not None else "no"
    out = {"verdict": verdict, **report.to_dict()}
    print(json.dumps(out, sort_keys=True))
    if cert is not None and args.cert:
        _dump(args.cert, cert)
    return 0 if cert is not None else 1


def _blocks_cert(field, shape, Bs):
    return _document(field, "witness-blocks", w=shape.w, d=shape.d,
                     blocks=[_mat_to_rows(B) for B in Bs])


def cmd_verify(args) -> int:
    data = _load(args.instance)
    cert = _load(args.cert)
    field = _check_instance(data)
    _check_certificate(cert, data)
    rng = Rng(args.seed)
    if cert["kind"] == "algebra-iso":
        basis = [Mat.from_rows(field, b) for b in data["payload"]["basis"]]
        algebra = AlgebraInput(field, basis)
        w = cert["w"]
        from .fmai import AlgebraIso, left_mult_matrices, verify_isomorphism

        images = {
            (i, j): Mat.from_rows(field, cert["images"][f"{i+1},{j+1}"])
            for i in range(w)
            for j in range(w)
        }
        ok = verify_isomorphism(algebra, left_mult_matrices(algebra), AlgebraIso(w, images))
    else:
        # _check_certificate has matched the certificate's (w, d) to the instance's
        f, shape = _blackbox_from_instance(field, data)
        if cert["kind"] == "witness-full":
            witness = Mat.from_rows(field, cert["matrix"])
        else:
            witness = [Mat.from_rows(field, b) for b in cert["blocks"]]
        try:
            ok = verify_witness(f, shape, witness, args.trials, rng)
        except TrimmeqError:
            ok = False
    print(json.dumps({"verdict": "pass" if ok else "fail", "pit_trials": args.trials}))
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    from .acceptance import run_all

    field = Fp(args.prime)
    numbers = set(args.only) if args.only else None
    results = run_all(field, numbers=numbers)
    for r in results:
        print(r.line())
    bad = [r for r in results if not r.passed]
    print(f"{len(results) - len(bad)}/{len(results)} criteria passed")
    return 0 if not bad else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trimmeq",
        description="Equivalence testing for trace-of-matrix-product polynomials over prime fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # a string default goes through type=int too, so a bad TRIMMEQ_PRIME exits 2
    default_prime = os.environ.get("TRIMMEQ_PRIME", str(DEFAULT_PRIME))

    g = sub.add_parser("gen", help="generate a planted instance file")
    g.add_argument("--w", type=int, required=True)
    g.add_argument("--d", type=int, default=3)
    g.add_argument("--prime", type=int, default=default_prime)
    g.add_argument("--mode", choices=["full", "block", "tensor", "algebra"], required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=str, required=True)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("solve", help="run a reduction pipeline on an instance")
    s.add_argument("instance")
    s.add_argument("--task", choices=["trace", "tensor-iso", "fmai", "degree-reduce"], required=True)
    s.add_argument("--oracle", choices=["w2", "planted"], default="w2")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--cert", type=str, default=None, help="certificate output path")
    s.set_defaults(fn=cmd_solve)

    v = sub.add_parser("verify", help="re-verify a certificate by identity testing")
    v.add_argument("instance")
    v.add_argument("cert")
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=1)
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("selftest", help="run the acceptance suite")
    t.add_argument("--prime", type=int, default=default_prime)
    t.add_argument("--only", type=int, nargs="*", default=None, help="criterion numbers")
    t.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TrimmeqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
