"""Usage: python tools/diff_dumps.py <a> <b>

Compares two dumps written by tools/dump_outputs.py section by section. A
section is a line "## <label>" and the lines up to the next such line; a
label that repeats is numbered by its occurrence. Prints "k of n sections
differ", n the sections of both dumps together, then one line per
section that differs or is missing from one dump. Exits 1 if any section
differs or is missing, else 0.
"""

import sys
from pathlib import Path


def sections(path) -> dict:
    """Label -> body of each section, in file order."""
    out, seen = {}, {}
    label, body = None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            if label is not None:
                out[label] = body
            name = line[3:]
            seen[name] = seen.get(name, 0) + 1
            label = name if seen[name] == 1 else f"{name} #{seen[name]}"
            body = []
        else:
            body.append(line)
    if label is not None:
        out[label] = body
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (sections(path) for path in argv)
    labels = list(a) + [label for label in b if label not in a]
    lines = []
    for label in labels:
        if label not in b:
            lines.append(f"only in {argv[0]}: {label}")
        elif label not in a:
            lines.append(f"only in {argv[1]}: {label}")
        elif a[label] != b[label]:
            lines.append(f"differs: {label}")
    print(f"{len(lines)} of {len(labels)} sections differ")
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
