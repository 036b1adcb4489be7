"""The scripts under tools/: the known-failure check, the ulp ensemble
and the package size count."""

import importlib.util
import os

import numpy as np
import pytest

from polydg.mesh import PATTERN_KINDS

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOG = """\
tests/test_a.py ..F.E                                                    [100%]
=========================== short test summary info ============================
FAILED tests/test_a.py::test_count[rtri-p1 k2] - assert 3 == 4
ERROR tests/test_b.py - ImportError: cannot import name 'gone'
ERROR tests/test_a.py::test_fixture[x] - RuntimeError: set-up failed
============= 1 failed, 3 passed, 2 errors in 0.12s =============
"""


def test_known_failures_reads_failed_and_error_lines(tmp_path):
    check = load_tool("check_known_failures")
    log = tmp_path / "run.log"
    log.write_text(LOG)
    assert check.failed_ids(log) == {
        "tests/test_a.py::test_count[rtri-p1 k2]",
        "ERROR tests/test_b.py",
        "ERROR tests/test_a.py::test_fixture[x]"}
    assert check.main(["check", str(log), str(log)]) == 0
    # a known list of the FAILED line only misses both errors
    known = tmp_path / "known.txt"
    known.write_text(LOG.splitlines()[2] + "\n")
    assert check.main(["check", str(log), str(known)]) == 1


# pattern -> the advect counts of block Jacobi, GMRES+Jacobi and GMRES+ILU(0)
# (the order of experiments.SOLVER_CONFIGS) at p = 1, k2, h = 0.2, 2 steps
STABLE_ADVECT_COUNTS = {
    "hexagon": (40, 37, 7),
    "square": (43, 40, 9),
    "rtri": (53, 51, 11),
    "etri": (51, 49, 9),
}


def test_small_advect_counts_are_ulp_stable():
    ulp = load_tool("ulp_ensemble")
    runs = ulp.ensemble("advect", 2, PATTERN_KINDS, (1,), ("k2",), h=0.2,
                        n_steps=2)
    got = {}
    for (pattern, p, k_label, solver, pc), counts in runs.items():
        assert (p, k_label) == (1, "k2")
        # the unperturbed run and both perturbed runs give one count
        assert len(counts) == 3 and len(set(counts)) == 1, (pattern, solver)
        got.setdefault(pattern, []).append(counts[0][0])
    assert {kind: tuple(c) for kind, c in got.items()} == STABLE_ADVECT_COUNTS


def test_against_flags_counts_outside_the_parent_range(tmp_path, capsys):
    # the smoke advect cell unperturbed, compared with doctored parent CSVs
    ulp = load_tool("ulp_ensemble")
    this = tmp_path / "this.csv"
    run = ["advect", "--smoke", "--seeds", "0", "--out", str(this)]
    assert ulp.main(run) == 0
    header, *rows = this.read_text().splitlines()[1:]
    cols = header.split(",")
    first = rows[0].split(",")
    count = int(first[cols.index("iterations")])

    def parent(iterations, lo, hi):
        row = list(first)
        row[cols.index("iterations")] = str(iterations)
        row[cols.index("iterations_min")] = str(lo)
        row[cols.index("iterations_max")] = str(hi)
        path = tmp_path / "parent.csv"
        path.write_text("\n".join(["# seeds=4", header, ",".join(row),
                                   *rows[1:]]) + "\n")
        return ["--against", str(path)]

    label = "advect {} p={} {} {}/{}".format(*first[1:6])
    capsys.readouterr()
    assert ulp.main(run + parent(count, count, count)) == 0
    assert capsys.readouterr().err == ""
    # moved, but within the parent's range
    assert ulp.main(run + parent(count + 1, count, count + 1)) == 0
    assert capsys.readouterr().err == (
        f"moved: {label} iterations {count + 1} -> {count}, "
        f"parent range {count}-{count + 1}\n")
    assert ulp.main(run + parent(count + 1, count + 1, count + 2)) == 1
    assert capsys.readouterr().err == (
        f"outside: {label} iterations {count + 1} -> {count}, "
        f"parent range {count + 1}-{count + 2}\n")
    # a cell the parent did not run
    path = tmp_path / "parent.csv"
    path.write_text("\n".join(["# seeds=4", header, *rows[1:]]) + "\n")
    assert ulp.main(run + ["--against", str(path)]) == 1
    assert capsys.readouterr().err == f"no parent row: {label}\n"
    assert ulp.main(run + ["--against", str(tmp_path / "missing.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: --against: ")


def test_against_flags_any_changed_analyze_bit(tmp_path, capsys):
    # the smoke analyze table, compared with a parent whose lambda_max
    # differs in the last bit
    ulp = load_tool("ulp_ensemble")
    this = tmp_path / "this.csv"
    run = ["analyze", "--smoke", "--out", str(this)]
    assert ulp.main(run) == 0
    header, *rows = this.read_text().splitlines()[1:]
    cols = header.split(",")
    assert len(rows) == len(PATTERN_KINDS)
    first = rows[0].split(",")
    for col in ("lambda_max", "log_ratio"):
        text = first[cols.index(col)]
        assert float.fromhex(text).hex() == text
    lam = float.fromhex(first[cols.index("lambda_max")])
    path = tmp_path / "parent.csv"
    path.write_text(this.read_text())
    capsys.readouterr()
    assert ulp.main(run + ["--against", str(path)]) == 0
    assert capsys.readouterr().err == ""
    row = list(first)
    row[cols.index("lambda_max")] = np.nextafter(lam, 1.0).hex()
    path.write_text("\n".join(["# seeds=0", header, ",".join(row),
                               *rows[1:]]) + "\n")
    assert ulp.main(run + ["--against", str(path)]) == 1
    label = "analyze {} p={} {} {}/{}".format(*first[1:6])
    assert capsys.readouterr().err == (
        f"changed: {label} lambda_max {np.nextafter(lam, 1.0).hex()} -> "
        f"{lam.hex()}\n")


MODULE = '''\
from dataclasses import dataclass, field
import dataclasses


def f(a, b=1, *args, c, d=2, **kwargs):
    g = lambda x, y: x + y
    def inner(e):
        return e
    return g, inner


class C:
    def method(self, x, /, y):
        pass

    @classmethod
    def make(cls, z):
        pass


@dataclass
class D:
    u: int
    v: float = 0.0
    w = 3


@dataclasses.dataclass(frozen=True)
class E:
    t: list = field(default_factory=list)


class F:
    s: int = 0
'''


def test_src_size_counts_lines_and_settable_values(tmp_path, capsys):
    size = load_tool("src_size")
    # f: a, b, args, c, d, kwargs; inner: e; method: x, y; make: z; the
    # fields u, v, t; not self, cls, the lambda's x and y, D.w or F.s
    assert size.settable_values(MODULE) == 13
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text(MODULE)
    (package / "sub" / "b.py").write_text("def h(q):\n    pass\n")
    (package / "notes.txt").write_text("def i(r):\n")
    lines = len(MODULE.splitlines()) + 2
    assert size.src_size(str(package)) == (lines, 14)
    assert size.main(["src_size", str(package)]) == 0
    assert capsys.readouterr().out == f"lines {lines}\nsettable values 14\n"
    with pytest.raises(SystemExit):
        size.main(["src_size", str(tmp_path / "missing")])


def test_setup_digest_against_flags_each_changed_digest(tmp_path, capsys):
    digest = load_tool("setup_digest")
    parent = tmp_path / "parent.txt"
    assert digest.main(["--smoke", "--out", str(parent)]) == 0
    lines = parent.read_text().splitlines()
    # the hexagon meshes' arrays, then basis and operators at p = 0 and 1
    assert [line.split()[:3] for line in lines[:3]] == [
        ["mesh", "advect-hexagon", "-"], ["basis", "advect-hexagon", "0"],
        ["advection", "advect-hexagon", "0"]]
    assert len(lines) == 10 and len({line.split()[3] for line in lines}) == 10
    # one changed digest and one missing line of the parent's
    layer, name, p, sha = lines[1].split()
    changed = f"{layer} {name} {p} {'0' * 64}"
    parent.write_text("\n".join([lines[0], changed] + lines[2:-1]) + "\n")
    capsys.readouterr()
    assert digest.main(["--smoke", "--against", str(parent)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"differs: {lines[1]} (against {'0' * 64})",
        f"differs: {lines[-1]} (against no line)"]
    assert digest.main(["--against", str(tmp_path / "missing.txt")]) == 2
