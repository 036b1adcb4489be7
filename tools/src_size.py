"""How large is the package? Count its lines and its settable values.

    python tools/src_size.py [PACKAGE_DIR]

Prints the physical lines of the .py files under PACKAGE_DIR (default:
src/polydg at the repository root) and the number of values a caller can
set: the parameters of every `def`, *args and **kwargs included, except
`self` and `cls`, plus the fields of every `@dataclass` class. Lambda
parameters do not count. A simplification that holds the behaviour and
lowers both numbers has removed code, not moved it.
"""

import ast
import glob
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "polydg")


def _is_dataclass(node):
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.attr if isinstance(d, ast.Attribute) else
                getattr(d, "id", None)) == "dataclass":
            return True
    return False


def settable_values(source):
    """The def parameters (less self and cls) plus dataclass fields of
    one module's source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            count += sum(n not in ("self", "cls") for n in names)
            count += (a.vararg is not None) + (a.kwarg is not None)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


def src_size(package=PACKAGE):
    """(physical lines, settable values) of the .py files under package."""
    lines = values = 0
    for path in sorted(glob.glob(os.path.join(package, "**", "*.py"),
                                 recursive=True)):
        with open(path) as f:
            source = f.read()
        lines += len(source.splitlines())
        values += settable_values(source)
    return lines, values


def main(argv):
    package = argv[1] if len(argv) == 2 else PACKAGE
    if len(argv) > 2 or not os.path.isdir(package):
        sys.exit(__doc__)
    lines, values = src_size(package)
    print(f"lines {lines}")
    print(f"settable values {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
