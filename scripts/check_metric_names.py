"""Lint: metric names in src/repro/ ↔ their reference and their readers.

Dashboards, alert rules, and runbooks are written against metric
*names*; a rename in code silently breaks all of them. This lint keeps
the "Metric name reference" appendix of ``docs/OBSERVABILITY.md``
authoritative, and every metric earning its place, by checking **three
directions**:

* every metric registered in ``src/repro/`` (each string literal in the
  name argument of ``inc`` / ``set_gauge`` / ``observe`` /
  ``observe_many`` / ``counter`` / ``gauge`` / ``histogram``, both arms
  of a conditional included, or assigned to a ``*_metric`` name) must
  match a documented name;
* every documented name must match a registration site, so the doc
  cannot accumulate ghosts;
* every registered name must have a reader: it must occur, dotted or
  in its ``repro_`` Prometheus form, in a ``.py`` or ``.sh`` file under
  ``scripts/`` (this lint aside), ``bench/`` or ``tests/``, or in
  ``BENCHMARK.json``. A number nothing reads is deleted, not kept.

Runtime-substituted segments are wildcards on the registration side: an
f-string ``{...}`` placeholder in code and a ``<...>`` placeholder in
the doc each match exactly one dotted segment (``alert.state.{rule.name}``
↔ ``alert.state.<rule>``), and a reader must spell that segment out
(``alert.state.serve_latency``). A literal ending in ``.`` (string
concatenation) gets a trailing wildcard.

Wired into ``scripts/run_all.sh``; exits nonzero listing the drift.
"""

import ast
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join("src", "repro")
DOC_PATH = os.path.join("docs", "OBSERVABILITY.md")
DOC_SECTION = "## Metric name reference"

#: The registry implementation itself registers nothing by name.
SKIP_FILES = {os.path.join("telemetry", "metrics.py")}

#: Registry methods whose first argument is a metric name.
REGISTRY_METHODS = {"inc", "set_gauge", "observe", "observe_many",
                    "counter", "gauge", "histogram"}

#: Where readers live: source files under these directories, and files.
READER_DIRS = ("scripts", "bench", "tests")
READER_FILES = ("BENCHMARK.json",)
READER_EXTENSIONS = (".py", ".sh")

#: A normalized metric name: dotted lowercase segments, ``*`` wild.
NAME_SHAPE = re.compile(r"^[a-z0-9_*-]+(\.[a-z0-9_*-]+)+$")


def normalize_code(raw: str) -> str:
    return raw + "*" if raw.endswith(".") else raw


def normalize_doc(raw: str) -> str:
    return re.sub(r"<[^>]*>", "*", raw)


def _literals(node):
    """Every string literal of a name expression, an f-string read with
    ``*`` for each placeholder."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return ["".join(part.value if isinstance(part, ast.Constant)
                        else "*" for part in node.values)]
    return [literal for child in ast.iter_child_nodes(node)
            for literal in _literals(child)]


def _name_expressions(tree):
    """The name argument of each registry call and the value of each
    ``*_metric`` assignment in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in REGISTRY_METHODS and node.args):
            yield node.args[0]
        elif isinstance(node, ast.Assign) and any(
                (getattr(t, "attr", None) or getattr(t, "id", "")
                 ).endswith("_metric") for t in node.targets):
            yield node.value


def collect_code(src_dir: str):
    """→ [(normalized name, "path:line")] for every registration under
    ``src_dir``."""
    found = []
    top = os.path.dirname(os.path.dirname(os.path.abspath(src_dir)))
    for root, dirs, files in os.walk(src_dir):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(root, fname)
            if os.path.relpath(path, src_dir) in SKIP_FILES:
                continue
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            where = os.path.relpath(path, top)
            for expr in _name_expressions(tree):
                for raw in _literals(expr):
                    name = normalize_code(raw)
                    if NAME_SHAPE.match(name):
                        found.append((name, f"{where}:{expr.lineno}"))
    return found


def collect_doc(doc_path: str):
    """→ [normalized name] from the reference appendix's backticks."""
    with open(doc_path) as handle:
        text = handle.read()
    start = text.find(DOC_SECTION)
    if start < 0:
        raise SystemExit(f"{doc_path} has no '{DOC_SECTION}' section")
    section = text[start + len(DOC_SECTION):]
    cut = section.find("\n## ")
    if cut >= 0:
        section = section[:cut]
    names = []
    for raw in re.findall(r"`([^`]+)`", section):
        name = normalize_doc(raw)
        if NAME_SHAPE.match(name):
            names.append(name)
    return names


def collect_readers(root: str) -> str:
    """The text of every reader file under ``root``, concatenated."""
    paths = [os.path.join(root, name) for name in READER_FILES]
    for top in READER_DIRS:
        for here, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            paths += [os.path.join(here, f) for f in sorted(files)
                      if f.endswith(READER_EXTENSIONS)]
    texts = []
    for path in paths:
        if os.path.isfile(path) and \
                os.path.abspath(path) != os.path.abspath(__file__):
            with open(path) as handle:
                texts.append(handle.read())
    return "\n".join(texts)


def reader_pattern(name: str):
    """A regex finding ``name`` in reader text, as a whole dotted name
    or as its ``repro_`` Prometheus form (a histogram's ``_sum`` and
    ``_count`` included); a ``*`` matches one spelled-out segment."""
    parts = name.split(".")
    dotted = r"\.".join(r"[\w-]+" if part == "*" else re.escape(part)
                        for part in parts)
    prom = "_".join(r"\w+" if part == "*"
                    else re.escape(part.replace("-", "_"))
                    for part in parts)
    return re.compile(rf"(?<![\w.])(?:{dotted}(?![\w-]|\.\w)"
                      rf"|repro_{prom}(?:_sum|_count)?(?!\w))")


def find_unread(code, reader_text: str):
    """→ the (name, where) registrations no reader names."""
    unread = {name for name, _ in code
              if not reader_pattern(name).search(reader_text)}
    return [(name, where) for name, where in code if name in unread]


def matches(a: str, b: str) -> bool:
    """Token-wise match; ``*`` on either side matches one segment."""
    left, right = a.split("."), b.split(".")
    if len(left) != len(right):
        return False
    return all(x == "*" or y == "*" or x == y
               for x, y in zip(left, right))


def main(root: str = REPO_ROOT) -> int:
    code = collect_code(os.path.join(root, SRC_DIR))
    doc = collect_doc(os.path.join(root, DOC_PATH))
    failures = []

    undocumented = [(name, where) for name, where in code
                    if not any(matches(name, d) for d in doc)]
    for name, where in sorted(set(undocumented)):
        failures.append(f"registered but undocumented: {name} "
                        f"({where}) — add it to docs/OBSERVABILITY.md "
                        f"'{DOC_SECTION}'")

    code_names = {name for name, _ in code}
    ghosts = [d for d in doc
              if not any(matches(c, d) for c in code_names)]
    for name in sorted(set(ghosts)):
        failures.append(f"documented but never registered: {name} — "
                        f"remove it from docs/OBSERVABILITY.md or "
                        f"restore the metric")

    for name, where in sorted(set(find_unread(code,
                                              collect_readers(root)))):
        failures.append(f"registered but never read: {name} ({where}) — "
                        f"read it in scripts/, bench/ or tests/, or "
                        f"delete it")

    print(f"checked {len(code_names)} registered metric pattern(s) "
          f"against {len(set(doc))} documented name(s) and their readers")
    if failures:
        print(f"\nMETRIC NAME LINT FAILED "
              f"({len(failures)} finding(s)):", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print("metric names, docs and readers agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
