"""Reading and writing job-shop instances in the Taillard benchmark layout.

A file holds, after optional ``#`` comments and blank lines, a ``J M`` header,
then J rows of M processing times, then J rows of M machine indices (1-based
in the file, converted to 0-based in memory).  Whitespace is free-form.  The
80 classic ``ta`` instances ship with the package together with a table of
best-known makespans. Both are package data, so each is parsed once per
process and then shared: an ``Instance`` is read-only, and so is the table.
"""

from __future__ import annotations

import functools
import importlib.resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .core import Instance


class InstanceParseError(ValueError):
    """Raised when an instance file cannot be parsed."""


def parse_taillard(text: str, name: str = "") -> Instance:
    """Parse instance text in the Taillard layout."""
    tokens = [(lineno, tok)
              for lineno, raw in enumerate(text.splitlines(), start=1)
              for tok in raw.split("#", 1)[0].split()]

    def unread(i: int, what: str) -> InstanceParseError:
        # token i is missing or not an integer
        if i >= len(tokens):
            return InstanceParseError(f"unexpected end of file while reading {what}")
        lineno, tok = tokens[i]
        return InstanceParseError(
            f"line {lineno}: expected integer for {what}, got {tok!r}")

    header = []
    for i, what in enumerate(("job count", "machine count")):
        try:
            header.append(int(tokens[i][1]))
        except (IndexError, ValueError):
            raise unread(i, what) from None
    J, M = header
    if J <= 0 or M <= 0:
        raise InstanceParseError(f"job and machine counts must be positive, got {J} x {M}")

    # J rows of processing times, then J rows of machines (1-based); values
    # stops at the first token int() rejects
    n = J * M
    values = []
    for _, tok in tokens[2:2 + 2 * n]:
        try:
            values.append(int(tok))
        except ValueError:
            break
    # an index outside 1..M in values comes before any bad or missing token
    k = next((k for k, m in enumerate(values[n:]) if not 1 <= m <= M), None)
    if k is not None:
        raise InstanceParseError(
            f"machine row {k // M + 1}: index {values[n + k]} outside 1..{M}")
    if len(values) < 2 * n:
        part, cell = divmod(len(values), n)
        raise unread(2 + len(values),
                     f"{('processing-time', 'machine')[part]} row "
                     f"{cell // M + 1}, column {cell % M + 1}")
    if len(tokens) > 2 + 2 * n:
        lineno, tok = tokens[2 + 2 * n]
        raise InstanceParseError(f"line {lineno}: trailing data {tok!r}")
    proc, machine = np.array(values, dtype=np.int64).reshape(2, J, M)
    try:
        return Instance(n_jobs=J, n_machines=M, proc=proc, machine=machine - 1,
                        name=name)
    except ValueError as exc:
        raise InstanceParseError(str(exc))


def parse_taillard_file(path: str | Path) -> Instance:
    path = Path(path)
    return parse_taillard(path.read_text(), name=path.stem)


def emit_taillard(instance: Instance) -> str:
    """Write an instance back out in the same layout (machines 1-based)."""
    lines = [f"{instance.n_jobs} {instance.n_machines}"]
    for j in range(instance.n_jobs):
        lines.append(" ".join(str(int(t)) for t in instance.proc[j]))
    for j in range(instance.n_jobs):
        lines.append(" ".join(str(int(m) + 1) for m in instance.machine[j]))
    return "\n".join(lines) + "\n"


def generate_instance(n_jobs: int, n_machines: int, seed: int, name: str = "") -> Instance:
    """Random instance: times uniform on 1..99, routes uniform permutations."""
    rng = np.random.Generator(np.random.PCG64(seed))
    proc = rng.integers(1, 100, size=(n_jobs, n_machines), dtype=np.int64)
    machine = np.stack([rng.permutation(n_machines) for _ in range(n_jobs)])
    if not name:
        name = f"gen{n_jobs}x{n_machines}s{seed}"
    return Instance(n_jobs=n_jobs, n_machines=n_machines,
                    proc=proc, machine=machine, name=name)


def _data_root():
    return importlib.resources.files("jobshopls") / "data"


def builtin_names() -> list[str]:
    """Names of the bundled benchmark instances, ta01 through ta80."""
    return [f"ta{i:02d}" for i in range(1, 81)]


@functools.cache
def builtin_instance(name: str) -> Instance:
    """Load a bundled instance by name (for example ``ta01``).

    Parsed on the first call; later calls return the same ``Instance``.
    """
    res = _data_root() / "taillard" / f"{name}.txt"
    try:
        text = res.read_text()
    except FileNotFoundError:
        raise KeyError(f"no bundled instance named {name!r}")
    return parse_taillard(text, name=name)


@functools.cache
def best_known() -> Mapping[str, int]:
    """Best-known makespans for the bundled instances, as a read-only
    mapping parsed on the first call."""
    out: dict[str, int] = {}
    for line in (_data_root() / "bks.csv").read_text().splitlines()[1:]:
        if not line.strip():
            continue
        name, value = line.split(",")
        out[name] = int(value)
    return MappingProxyType(out)


def resolve_instance(spec: str) -> Instance:
    """Accept a bundled name or a filesystem path.

    A path is read and parsed on every call, since the file may change; a
    bundled name returns the shared ``builtin_instance``.
    """
    if Path(spec).is_file():
        return parse_taillard_file(spec)
    try:
        return builtin_instance(spec)
    except KeyError:
        raise FileNotFoundError(f"{spec!r} is neither a file nor a bundled instance")
