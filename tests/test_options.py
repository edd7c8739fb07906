"""Every option has a caller: each optional parameter of a function in
``src/lorlab`` is passed, by keyword or by position, by at least one call
in ``src/``, ``tests/``, ``demos/`` or ``perfbench/``.  An option that no
caller sets is a constant with a second name; write the constant.

Calls are matched to definitions by the called name (``f(...)`` or
``obj.f(...)``), a class's ``__init__`` by the names of the class and its
subclasses; a call with ``*args`` or ``**kwargs`` passes every option.
The scenario builders are exempt: the command line reaches their
options through a config's ``scenario_params``.

So that a ``**kwargs`` forward cannot pass options that no caller sets,
no function of ``src/lorlab`` takes ``**kwargs``, apart from the three
whose keys come from a command line config and are checked there.
"""

import ast
from pathlib import Path

from lorlab import scenarios

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "tests", "demos", "perfbench")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _options(trees):
    """(file, line, called names, option, positional index or None,
    leading self/cls) for each optional parameter of src/lorlab."""
    subclasses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        subclasses.setdefault(base.id, []).append(node.name)

    def class_names(name):
        out = [name]
        for sub in subclasses.get(name, []):
            out += class_names(sub)
        return out

    for path, tree in trees.items():
        owners = {child: node for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef)
                  for child in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [node.name]
            if node.name == "__init__" and node in owners:
                names = class_names(owners[node].name)
            if node.name in scenarios.available():
                continue
            args = node.args
            pos = args.posonlyargs + args.args
            bound = bool(pos) and pos[0].arg in ("self", "cls")
            first = len(pos) - len(args.defaults)
            for i, a in enumerate(pos[first:], first):
                yield path.name, node.lineno, names, a.arg, i, bound
            for a, d in zip(args.kwonlyargs, args.kw_defaults):
                if d is not None:
                    yield path.name, node.lineno, names, a.arg, None, bound


# functions whose **kwargs are config keys, checked by experiments._read_config
KWARGS_ALLOWED = {("scenarios.py", "build"),
                  ("experiments.py", "_read_config"),
                  ("experiments.py", "_run")}


def _calls(trees):
    """Called name -> the ast.Call nodes of that name."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute)
                        else None)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call, option, index, bound):
    if any(k.arg in (option, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index - bound


def test_every_option_has_a_caller():
    trees = {p: _parse(p) for d in CALLER_DIRS
             for p in sorted((ROOT / d).rglob("*.py"))}
    package = {p: t for p, t in trees.items()
               if p.parent == ROOT / "src" / "lorlab"}
    calls = _calls(trees.values())
    options = list(_options(package))
    assert len(options) > 50            # the scan sees the package
    unset = [f"{file}:{line} {names[0]}({option})"
             for file, line, names, option, index, bound in options
             if not any(_passes(c, option, index, bound)
                        for name in names for c in calls.get(name, []))]
    assert unset == [], "options that no call sets: " + ", ".join(unset)


def test_no_function_takes_kwargs():
    takers = sorted((path.name, node.name)
                    for path in sorted((ROOT / "src" / "lorlab").glob("*.py"))
                    for node in ast.walk(_parse(path))
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and node.args.kwarg is not None)
    assert KWARGS_ALLOWED <= set(takers)          # the scan sees them
    hidden = [f"{file} {name}" for file, name in takers
              if (file, name) not in KWARGS_ALLOWED]
    assert hidden == [], "functions taking **kwargs: " + ", ".join(hidden)
