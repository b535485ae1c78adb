"""Correctness gate: golden digests of exact payloads plus seed-independent
invariants.

Only the mathematical payload of a result is digested (coefficient pairs,
line verdicts, admissible tables, counts), never the JSON envelope or
report fields around it, so that provenance, timing or certificate fields
added to the output later do not break the digests.  Float roots are kept
as numbers and compared within FLOAT_RTOL.

    python3 perfbench/golden.py      # recapture perfbench/golden.json

run from the repository root recomputes every golden entry from the
current source; do that only on a commit whose outputs are trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

FLOAT_RTOL = 1e-7  # roots come from a deterministic Aberth iteration in doubles
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def rounded(values) -> list[float]:
    return [float(f"{x:.12g}") for x in values]


def floats_close(got, want) -> bool:
    return len(got) == len(want) and all(
        abs(a - b) <= FLOAT_RTOL * max(1.0, abs(b)) for a, b in zip(got, want)
    )


def coeff_bits(coeff_pairs) -> int:
    """Total numerator and denominator bits of [["num", "den"], ...]."""
    return sum(int(n).bit_length() + int(d).bit_length() for n, d in coeff_pairs)


# -- cli-exceptional ----------------------------------------------------------------


def cli_key(argv) -> str:
    return " ".join(argv)


def cli_record(argv, envelope: dict) -> dict:
    """The exact payload (digested), the float payload, and the coefficient
    pairs of every polynomial in the result."""
    cmd, result = envelope["command"], envelope["result"]
    floats: list = []
    if cmd == "check-line":
        details = result["details"]
        exact = [result["on_line"], result["center"], details.get("parity_ok"), details.get("even_part")]
        polys = [details["even_part"]["coeffs"]] if "even_part" in details else []
    elif cmd == "charquasi":
        polys = [c["coeffs"] for c in result["constituents"]] if "constituents" in result else [result["coeffs"]]
        exact = polys
    elif cmd == "toy":
        polys = [result["polynomial"]["coeffs"]]
        exact = [polys[0], result["line_check"]["on_line"]]
    elif cmd == "admissible":
        exact, polys = [result["residues"], result["divisors"], result["m0"]], []
    elif cmd == "limit-roots":
        polys = [result["polynomial"]["coeffs"]]
        exact = [polys[0], result["roots"]["converged"]]
        floats = [x for z in result["roots"]["roots"] for x in z] + [result["max_real_part"]]
    elif cmd == "oracle-modq":
        exact, polys = [result["count"], result["char_quasi_value"], result["agree"]], []
    else:
        raise ValueError(f"unexpected command {cmd!r}")
    return {"digest": digest(exact), "floats": rounded(floats), "polys": polys}


def cli_problems(golden: dict, argv, envelope: dict) -> list[str]:
    """Why this CLI result is wrong (empty if it is right)."""
    key = cli_key(argv)
    rec = cli_record(argv, envelope)
    result = envelope["result"]
    problems = []
    if argv[0] == "charquasi":
        rank = int(argv[1][1:])
        for coeffs in rec["polys"]:
            if len(coeffs) != rank + 1 or coeffs[-1] != ["1", "1"]:
                problems.append(f"{key}: a constituent is not monic of degree {rank}")
                break
    if argv[0] == "oracle" and result["agree"] is not True:
        problems.append(f"{key}: oracle disagrees with the formula")
    want = golden["cli-exceptional"].get(key)
    if want is None:
        problems.append(f"{key}: no golden entry")
    elif rec["digest"] != want["digest"]:
        problems.append(f"{key}: digest {rec['digest']} != golden {want['digest']}")
    elif not floats_close(rec["floats"], want.get("floats", [])):
        problems.append(f"{key}: float payload outside tolerance")
    return problems


# -- classical-sweep -------------------------------------------------------------------


def sweep_key(name: str, m: int) -> str:
    return f"{name} {m}"


def sweep_record(name: str, m: int, poly, line, roots) -> dict:
    """Summary of one classical-sweep operation; `roots` is a ComplexRootSet
    or the LincharError find_roots raised."""
    pairs = poly.to_json()["coeffs"]
    rec = {
        "key": sweep_key(name, m),
        "digest": digest([pairs, line.on_line]),
        "monic_rank": len(pairs) == int(name[1:]) + 1 and pairs[-1] == ["1", "1"],
        "on_line": line.on_line,
        "bits": coeff_bits(pairs),
    }
    if isinstance(roots, Exception):
        rec["outcome"] = type(roots).__name__
    else:
        rec["outcome"] = "ok"
        rec["roots"] = rounded(x for z in roots.roots for x in (z.real, z.imag))
    return rec


def sweep_problems(golden: dict, rec: dict) -> list[str]:
    key = rec["key"]
    problems = []
    if not rec["monic_rank"]:
        problems.append(f"{key}: char_poly is not monic of degree rank")
    want = golden["classical-sweep"].get(key)
    if want is None:
        return problems + [f"{key}: no golden entry"]
    if rec["digest"] != want["digest"]:
        problems.append(f"{key}: digest {rec['digest']} != golden {want['digest']}")
    # A find_roots error counts as a failed operation, not a wrong result,
    # and roots first computed by a later fix have no golden to match.
    if want["outcome"] == rec["outcome"] == "ok" and not floats_close(rec["roots"], want["roots"]):
        problems.append(f"{key}: roots outside tolerance")
    return problems


# -- verify-all ----------------------------------------------------------------------------


def verify_all_record(results) -> list[dict]:
    """Per criterion: number, passed, and a digest of its verdict text.
    Criterion 12 reports float distances, so only its verdict is digested."""
    out = []
    for r in results:
        text = [r.number, r.name, r.passed, r.reported]
        if r.number != 12:
            text.append(r.detail)
        out.append({"number": r.number, "passed": r.passed, "digest": digest(text)})
    return out


def verify_all_problems(golden: dict, records: list[dict]) -> list[str]:
    problems = []
    if [r["number"] for r in records] != list(range(1, 13)):
        problems.append("verify-all did not run criteria 1..12")
    problems += [f"criterion {r['number']} failed" for r in records if not r["passed"]]
    want = golden["verify-all"]
    problems += [
        f"criterion {r['number']}: digest {r['digest']} != golden"
        for r, w in zip(records, want)
        if r["digest"] != w["digest"]
    ]
    return problems


# -- capture ----------------------------------------------------------------------------------


def capture() -> dict:
    """Recompute every golden entry in one warm process."""
    import workloads

    golden: dict = {"cli-exceptional": {}, "classical-sweep": {}, "verify-all": []}
    for argv in workloads.all_cli_queries():
        reply = workloads.cli_query(argv)
        envelope = json.loads(reply["stdout"])
        if reply["rc"] != 0:
            raise RuntimeError(f"{cli_key(argv)} failed: {envelope}")
        rec = cli_record(argv, envelope)
        entry = {"digest": rec["digest"]}
        if rec["floats"]:
            entry["floats"] = rec["floats"]
        golden["cli-exceptional"][cli_key(argv)] = entry
    for name, m in workloads.all_sweep_ops():
        rec = sweep_record(name, m, *workloads.sweep_op(name, m))
        entry = {"digest": rec["digest"], "on_line": rec["on_line"], "outcome": rec["outcome"]}
        if "roots" in rec:
            entry["roots"] = rec["roots"]
        golden["classical-sweep"][rec["key"]] = entry
    golden["verify-all"] = verify_all_record(workloads.verify_all())
    return golden


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    data = capture()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(data, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}: {sum(len(v) for v in data.values())} entries")
