"""The benchmark's workloads and the checks on their outputs.

Each workload is one `gapfem` command.  Why each one exists is in
README.md beside this file.  The `run` workloads are deterministic: their
CSV reports must equal the reference CSVs under reference/ byte for byte.
`identity` draws its random admissible pairs from the benchmark seed, so
only its exit code, its error bound and its level/sample/num_dof columns
are checked against the reference.
"""

import csv
import io
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# verify-identity's own pass threshold (its default), checked again here
IDENTITY_THRESHOLD = 1e-6
IDENTITY_KEY_COLUMNS = ("level", "sample", "num_dof")


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # built with its initial mesh during set-up
    argv: tuple
    seeded: bool = False

    def command(self, seed):
        """CLI arguments for one repetition, without --out."""
        argv = list(self.argv)
        if self.seeded:
            # distinct seeds give disjoint sample seeds: the CLI adds
            # 1000 * level + sample (and 500000 for the stress) to the offset
            argv += ["--seed", str(1_000_000 * (seed % 2**32))]
        return argv

    @property
    def reference(self):
        return REFERENCE_DIR / f"{self.name}.csv"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tg-uniform", "taylor-green",
            ("run", "taylor-green", "--mode", "uniform", "--max-iter", "4"),
        ),
        Workload(
            "lshape-adaptive", "lshape",
            ("run", "lshape", "--mode", "adaptive", "--theta", "0.5",
             "--max-iter", "13"),
        ),
        Workload(
            "cook-adaptive", "cook",
            ("run", "cook", "--mode", "adaptive", "--theta", "0.5",
             "--max-iter", "24"),
        ),
        Workload(
            "identity", "taylor-green",
            ("verify-identity", "--levels", "3", "--seeds", "16"),
            seeded=True,
        ),
    )
}


def check(workload, exit_code, output):
    """Messages for every way the output differs from the reference.

    `output` is the bytes of the report the command wrote, or None if it
    wrote none.  An empty list means the output is correct.
    """
    name = workload.name
    errors = [] if exit_code == 0 else [f"{name}: exit code {exit_code}"]
    if output is None:
        return errors + [f"{name}: no report written"]
    expected = workload.reference.read_bytes()
    if workload.seeded:
        return errors + _check_identity(name, output, expected)
    if output != expected:
        errors.append(_first_difference(name, output, expected))
    return errors


def _rows(data):
    return list(csv.reader(io.StringIO(data.decode())))


def _first_difference(name, output, expected):
    got, want = _rows(output), _rows(expected)
    if not got or got[0] != want[0]:
        return f"{name}: header differs: got {got[:1]}, expected {want[:1]}"
    header = want[0]
    for g, w in zip(got[1:], want[1:]):
        for col, a, b in zip(header, g, w):
            if a != b:
                return f"{name}: level {w[0]}, column {col}: got {a!r}, expected {b!r}"
    if len(got) != len(want):
        return f"{name}: {len(got) - 1} levels, expected {len(want) - 1}"
    return f"{name}: report differs from the reference in formatting"


def _check_identity(name, output, expected):
    got, want = _rows(output), _rows(expected)
    if not got or got[0] != want[0]:
        return [f"{name}: header differs: got {got[:1]}, expected {want[:1]}"]
    header = want[0]
    if len(got) != len(want):
        return [f"{name}: {len(got) - 1} rows, expected {len(want) - 1}"]
    keys = [header.index(c) for c in IDENTITY_KEY_COLUMNS]
    err = header.index("err_iden")
    errors = []
    for g, w in zip(got[1:], want[1:]):
        for i in keys:
            if g[i] != w[i]:
                errors.append(
                    f"{name}: level {w[0]}, column {header[i]}: "
                    f"got {g[i]!r}, expected {w[i]!r}"
                )
        if not float(g[err]) <= IDENTITY_THRESHOLD:
            errors.append(
                f"{name}: level {g[0]}, column err_iden: {g[err]} exceeds "
                f"{IDENTITY_THRESHOLD:g}"
            )
    return errors
