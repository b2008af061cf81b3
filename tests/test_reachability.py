"""Reachability census: every public definition in ``src/repro`` is used
outside ``tests/``, or ``ALLOWED`` says why it stays.  A new public function
that only tests call fails here.

DESIGN.md "Reachability" carries "an option nobody sets is a constant" from
options to code: a public ``def`` or ``class`` that only tests reach is
deleted, moved into ``tests/``, or listed below with one of ``REASONS``.
The census is static — stdlib ``ast`` over every ``*.py`` under ``src/``,
``bench/``, ``benchmarks/`` and ``examples/``.

A *name* is an identifier, an attribute or an equal string constant; the
definition itself, ``__all__`` entries, dict keys and subscripts are not
names.  A module-level function or class is used when a name equals it
outside its own body.  An annotation *mentions* what it names and types
receivers, but *uses* only a ``Protocol``: annotation is a protocol's one
use, while a concrete class only annotated is never built or called.  A
method ``C.m`` is used by an attribute ``.m`` or a string ``"m"`` whose
receiver may be a ``C``:

* a receiver whose class the syntax shows — ``self``, a class name, a local
  or ``self.`` attribute bound by ``C(...)``, by an annotation or by a call
  annotated ``-> C`` — must be ``C``, a base or subclass of it, or a
  ``Protocol`` ``C`` satisfies;
* an imported module (``subprocess.run``) is never a ``C``;
* any other attribute may be a ``C`` when no unrelated class has a member
  called ``m``, or in a file that names ``C`` or one of those relatives;
  any other string only in such a file.

A base that declares ``m`` as well makes its whole family relatives of
``C.m``: a call through the base may land on any subclass's override.  The
router's untyped ``worker.heartbeat()`` reaches both worker flavours that
way, because ``_Worker`` declares it; a backend method the REST handler
dispatches by name is reached because the handler's file names the
``Backend`` protocol the class satisfies.

So ``model.complete(...)`` in the CLI, where ``model`` comes from
``load_checkpoint() -> WisdomModel``, does not keep a client's
``complete`` alive.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")

REASONS = {
    "reference": "a reference implementation tests compare the real one against",
    "bench": "a frozen bench/ file reaches it by attribute or string",
    "flag": "the code behind a CLI flag or a WorkerSpec field",
    "open": 'an option DESIGN.md "Options" marks open',
}

#: Public definitions no file outside tests/ uses, each with its reason and,
#: above it, the caller the census cannot see.
ALLOWED = {
    # bench/trace.py wraps it as an instance attribute
    "repro.engine.batched_decode.DecodingBatch.admit_prompts": "bench",
    # repro obs --spans reads the JSONL it writes
    "repro.obs.trace.Tracer.export_jsonl": "flag",
    # tests/test_kv_state_machine.py checks the slot caches against it
    "repro.nn.kv_arena.DenseKVCache.view": "reference",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
MODULE = "<module>"  # receiver: an imported module
NAME = "<name>"  # a bare identifier, not an attribute
STRING = "<string>"  # a string constant


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _annotation(node, classes) -> str | None:
    """The one package class an annotation names: ``C``, ``"C"``,
    ``C | None`` or ``Optional[C]``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = [
            side
            for side in (node.left, node.right)
            if not (isinstance(side, ast.Constant) and side.value is None)
        ]
        return _annotation(sides[0], classes) if len(sides) == 1 else None
    if isinstance(node, ast.Subscript) and _name(node.value) == "Optional":
        return _annotation(node.slice, classes)
    name = _name(node)
    return name if name in classes else None


def _arguments(function) -> tuple[list[ast.arg], list[ast.arg]]:
    """``(positional, every)`` parameters of a function."""
    arguments = function.args
    positional = [*arguments.posonlyargs, *arguments.args]
    every = [*positional, *arguments.kwonlyargs, arguments.vararg, arguments.kwarg]
    return positional, [argument for argument in every if argument is not None]


def _decorated(function, name: str) -> bool:
    return any(_name(decorator) == name for decorator in function.decorator_list)


def _members(node: ast.ClassDef) -> set[str]:
    """Methods, class-level names and ``self.`` attributes of a class."""
    found = set()
    for item in node.body:
        if isinstance(item, DEFS):
            found.add(item.name)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            found.add(item.target.id)
        elif isinstance(item, ast.Assign):
            found |= {target.id for target in item.targets if isinstance(target, ast.Name)}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
            if _name(sub.value) == "self":
                found.add(sub.attr)
    return found


def _bind(table: dict, name: str, kind: str | None) -> None:
    """Record a binding; two bindings that disagree leave the name unknown."""
    table[name] = kind if table.get(name, kind) == kind else None


class Package:
    """What the package defines: public definitions, class relations, and the
    classes functions return and attributes hold, as far as annotations and
    constructor calls show."""

    def __init__(self, sources: dict[str, str]):
        #: qualified name -> (name, owning class or None, module)
        self.definitions: dict[str, tuple[str, str | None, str]] = {}
        nodes: dict[str, list[ast.ClassDef]] = defaultdict(list)
        functions: list = []
        for module, source in sources.items():
            tree = ast.parse(source)
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    nodes[node.name].append(node)
                if not isinstance(node, (*DEFS, ast.ClassDef)) or node.name.startswith("_"):
                    continue
                self.definitions[f"{module}.{node.name}"] = (node.name, None, module)
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, DEFS) and not item.name.startswith("_"):
                        qualname = f"{module}.{node.name}.{item.name}"
                        self.definitions[qualname] = (item.name, node.name, module)
            functions += [node for node in ast.walk(tree) if isinstance(node, DEFS)]
        self.classes = set(nodes)
        bases = {
            name: {_name(base) for node in found for base in node.bases}
            for name, found in nodes.items()
        }
        members = {name: set().union(*map(_members, found)) for name, found in nodes.items()}
        #: member name -> every class that has one by that name
        self.owners: dict[str, set[str]] = defaultdict(set)
        for name, names in members.items():
            for member in names:
                self.owners[member].add(name)
        ancestors = {name: self._closure(name, lambda c: bases[c] & self.classes) for name in nodes}
        self.members, self.ancestors = members, ancestors
        self.related = {name: {name} | ancestors[name] for name in nodes}
        for name in nodes:
            for ancestor in ancestors[name]:
                self.related[ancestor].add(name)
        self.protocols = {name for name in nodes if "Protocol" in bases[name]}
        for protocol in self.protocols:
            required = {member for member in members[protocol] if not member.startswith("_")}
            for name in nodes:
                inherited = members[name].union(*(members[a] for a in ancestors[name]))
                if name != protocol and required <= inherited:
                    self.related[protocol].add(name)
                    self.related[name].add(protocol)
        returns: dict[str, set] = defaultdict(set)
        for function in functions:
            returns[function.name].add(_annotation(function.returns, self.classes))
        self.returns = {name: kinds.pop() for name, kinds in returns.items() if len(kinds) == 1}
        #: class -> attribute -> the class it holds
        self.attributes: dict[str, dict[str, str | None]] = {name: {} for name in nodes}
        for _ in range(2):  # a second pass sees attributes of attributes
            for name, found in nodes.items():
                self.attributes[name] = self._attribute_kinds(name, found)

    def family(self, owner: str, member: str) -> set[str]:
        """The classes a receiver of ``owner.member`` may be: ``owner``'s
        relatives, and the relatives of every ancestor declaring ``member``."""
        found = set(self.related[owner])
        for ancestor in self.ancestors[owner]:
            if member in self.members[ancestor]:
                found |= self.related[ancestor]
        return found

    @staticmethod
    def _closure(start: str, step) -> set[str]:
        seen: set[str] = set()
        frontier = set(step(start))
        while frontier:
            name = frontier.pop()
            if name not in seen:
                seen.add(name)
                frontier |= step(name)
        return seen

    def _attribute_kinds(self, owner: str, nodes: list[ast.ClassDef]) -> dict[str, str | None]:
        table: dict[str, str | None] = {}
        for node in nodes:
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    _bind(table, item.target.id, _annotation(item.annotation, self.classes))
                if not isinstance(item, DEFS):
                    continue
                if _decorated(item, "property"):
                    _bind(table, item.name, _annotation(item.returns, self.classes))
                positional, every = _arguments(item)
                scope = {arg.arg: _annotation(arg.annotation, self.classes) for arg in every}
                if positional:
                    scope[positional[0].arg] = owner
                for sub in ast.walk(item):
                    if not isinstance(sub, ast.Assign) or (
                        isinstance(sub.value, ast.Constant) and sub.value.value is None
                    ):
                        continue
                    for target in sub.targets:
                        if isinstance(target, ast.Attribute) and _name(target.value) == "self":
                            _bind(table, target.attr, self.kind(sub.value, scope.get))
        return table

    def kind(self, node, lookup) -> str | None:
        """The package class an expression evaluates to, when the syntax shows it."""
        if isinstance(node, ast.Call):
            name = _name(node.func)
            return name if name in self.classes else self.returns.get(name)
        if isinstance(node, ast.Name):
            return node.id if node.id in self.classes else lookup(node.id)
        if isinstance(node, ast.Attribute):
            owner = self.kind(node.value, lookup)
            return self.attributes[owner].get(node.attr) if owner in self.attributes else None
        branches = ()
        if isinstance(node, ast.IfExp):
            branches = (node.body, node.orelse)
        elif isinstance(node, ast.BoolOp):
            branches = node.values
        kinds = {self.kind(branch, lookup) for branch in branches} - {None}
        return kinds.pop() if len(kinds) == 1 else None


class Usage(ast.NodeVisitor):
    """The names one file uses, each with what the syntax says of its receiver."""

    def __init__(self, package: Package, source: str):
        self.package = package
        #: name -> [(receiver, enclosing module-level function)]
        self.uses: dict[str, list[tuple[str | None, str | None]]] = defaultdict(list)
        self.mentions: set[str] = set()
        self.modules: set[str] = set()
        self.scopes: list[dict[str, str | None]] = [{}]
        self.owner: str | None = None  # the class whose body is being visited
        self.top: str | None = None
        self.quiet: set[int] = set()  # string constants that are not names
        self.annotating = False
        self.visit(ast.parse(source))

    def _lookup(self, name: str) -> str | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def _use(self, name: str, receiver: str | None) -> None:
        """Record a use; inside an annotation only a protocol's counts."""
        if not self.annotating or name in self.package.protocols:
            self.uses[name].append((receiver, self.top))

    def _visit_annotation(self, node) -> None:
        outer, self.annotating = self.annotating, True
        self.visit(node)
        self.annotating = outer

    def _receiver(self, node) -> str | None:
        if isinstance(node, ast.Name) and node.id in self.modules:
            return MODULE
        return self.package.kind(node, self._lookup)

    def visit_Import(self, node) -> None:
        for alias in node.names:
            self.modules.add(alias.asname or alias.name.split(".")[0])
            self.mentions.update(alias.name.split("."))

    def visit_ImportFrom(self, node) -> None:
        self.mentions.update(alias.name for alias in node.names)

    def visit_ClassDef(self, node) -> None:
        self.mentions.add(node.name)
        for child in (*node.decorator_list, *node.bases, *node.keywords):
            self.visit(child)
        outer, self.owner = self.owner, node.name
        self.scopes.append({})
        for statement in node.body:
            self.visit(statement)
        self.scopes.pop()
        self.owner = outer

    def visit_FunctionDef(self, node) -> None:
        arguments = node.args
        positional, every = _arguments(node)
        annotations = [argument.annotation for argument in every]
        outside = (*node.decorator_list, *arguments.defaults, *arguments.kw_defaults)
        for child in outside:
            if child is not None:
                self.visit(child)
        for child in (*annotations, node.returns):
            if child is not None:
                self._visit_annotation(child)
        classes = self.package.classes
        scope = {argument.arg: _annotation(argument.annotation, classes) for argument in every}
        if self.owner is not None and positional and not _decorated(node, "staticmethod"):
            scope[positional[0].arg] = self.owner
        outer_top, outer_owner = self.top, self.owner
        if self.owner is None and len(self.scopes) == 1:
            self.top = node.name
        self.owner = None
        self.scopes.append(scope)
        for statement in node.body:
            self.visit(statement)
        self.scopes.pop()
        self.top, self.owner = outer_top, outer_owner

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node) -> None:
        self.scopes.append({argument.arg: None for argument in node.args.args})
        self.visit(node.body)
        self.scopes.pop()

    def visit_Assign(self, node) -> None:
        if any(_name(target) == "__all__" for target in node.targets):
            self.quiet.update(id(sub) for sub in ast.walk(node.value))
        kind = self._receiver(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                _bind(self.scopes[-1], target.id, kind)
            else:
                self.visit(target)
        self.visit(node.value)

    def visit_AnnAssign(self, node) -> None:
        if isinstance(node.target, ast.Name):
            kind = _annotation(node.annotation, self.package.classes)
            _bind(self.scopes[-1], node.target.id, kind)
        else:
            self.visit(node.target)
        self._visit_annotation(node.annotation)
        if node.value is not None:
            self.visit(node.value)

    def visit_Name(self, node) -> None:
        self.mentions.add(node.id)
        if isinstance(node.ctx, ast.Load):
            self._use(node.id, NAME)
        else:
            _bind(self.scopes[-1], node.id, None)

    def visit_Attribute(self, node) -> None:
        self.mentions.add(node.attr)
        if isinstance(node.ctx, ast.Load):
            self._use(node.attr, self._receiver(node.value))
        self.visit(node.value)

    def visit_Constant(self, node) -> None:
        if not isinstance(node.value, str):
            return
        if self.annotating:  # a forward reference: the annotation it spells
            try:
                self.visit(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                pass
        elif id(node) not in self.quiet:
            self.mentions.add(node.value)
            self._use(node.value, STRING)

    def visit_Dict(self, node) -> None:
        self.quiet.update(id(key) for key in node.keys if key is not None)
        self.generic_visit(node)

    def visit_Subscript(self, node) -> None:
        self.quiet.add(id(node.slice))
        self.generic_visit(node)


class Census:
    """The package's definitions against the names every caller file uses."""

    def __init__(self, package: dict[str, str], callers: dict[str, str]):
        self.package = Package(package)
        self.usages = {where: Usage(self.package, source) for where, source in callers.items()}

    @classmethod
    def of(cls, root: Path) -> "Census":
        src = root / "src"
        package = {
            _module(path, src): path.read_text(encoding="utf-8")
            for path in sorted((src / "repro").rglob("*.py"))
        }
        callers = {}
        for directory in CALLER_DIRS:
            for path in sorted((root / directory).rglob("*.py")):
                where = _module(path, src) if directory == "src" else str(path.relative_to(root))
                callers[where] = path.read_text(encoding="utf-8")
        return cls(package, callers)

    def used(self, qualname: str) -> bool:
        name, owner, module = self.package.definitions[qualname]
        related = self.package.family(owner, name) if owner is not None else set()
        unique = self.package.owners[name] <= related
        for where, usage in self.usages.items():
            for receiver, top in usage.uses.get(name, ()):
                if owner is None:
                    if where != module or top != name:
                        return True
                elif receiver in (NAME, MODULE):
                    continue
                elif receiver in (None, STRING):
                    if (unique and receiver is None) or usage.mentions & related:
                        return True
                elif receiver in related:
                    return True
        return False


def _module(path: Path, src: Path) -> str:
    return ".".join(path.relative_to(src).with_suffix("").parts).removesuffix(".__init__")


@pytest.fixture(scope="module")
def census() -> Census:
    return Census.of(ROOT)


def test_every_public_definition_is_used_outside_tests(census):
    unused = [
        qualname
        for qualname in census.package.definitions
        if qualname not in ALLOWED and not census.used(qualname)
    ]
    assert not unused, (
        "only tests reach these public definitions: delete them, move them into "
        "tests/, or give them an ALLOWED reason\n  " + "\n  ".join(unused)
    )


def test_every_allowed_entry_is_defined_unused_and_reasoned(census):
    stale = {}
    for qualname, reason in ALLOWED.items():
        if reason not in REASONS:
            stale[qualname] = f"no such reason {reason!r}"
        elif qualname not in census.package.definitions:
            stale[qualname] = "gone"
        elif census.used(qualname):
            stale[qualname] = "used outside tests/"
    assert not stale, stale


def test_a_shared_method_name_is_resolved_by_its_receiver():
    census = Census(
        {
            "pkg.client": "class Client:\n    def complete(self): ...\n    def health(self): ...\n",
            "pkg.model": (
                "class Model:\n    name = 'm'\n    def complete(self): ...\n\n"
                "def load() -> Model: ...\n"
            ),
        },
        {
            "cli.py": "from pkg.model import load\nmodel = load()\nmodel.complete()\n",
            "ops.py": (
                "import subprocess\nfrom pkg.client import Client\n"
                "Client().health()\nsubprocess.complete()\n"
            ),
        },
    )
    assert census.used("pkg.model.Model.complete")
    assert census.used("pkg.client.Client.health")
    assert not census.used("pkg.client.Client.complete")


def test_a_method_dispatched_by_name_is_used_through_a_protocol_its_class_satisfies():
    package = {
        "pkg.service": (
            "from typing import Protocol\n\n"
            "class Backend(Protocol):\n    def health(self): ...\n    def stats(self): ...\n\n"
            "class Handler:\n    service: Backend\n"
            "    def route(self, method):\n        return getattr(self.service, method)()\n\n"
            "ROUTES = {'/health': 'health', '/stats': 'stats'}\n"
        ),
        "pkg.router": (
            "class Router:\n    def health(self): ...\n    def stats(self): ...\n"
            "class Stopwatch:\n    def stats(self): ...\n"
        ),
    }
    assert Census(package, {"pkg.service": package["pkg.service"]}).used("pkg.router.Router.health")
    # without the Protocol, a string names no class: the router's method is unused
    untyped = package["pkg.service"].replace("Protocol", "object").replace("Backend", "Base")
    assert not Census(package, {"pkg.service": untyped}).used("pkg.router.Router.health")


def test_a_method_two_siblings_define_is_used_when_their_base_declares_it():
    def census(base: str) -> Census:
        package = {
            "pkg.worker": (
                f"class _Worker:\n{base}\n"
                "class Local(_Worker):\n    def heartbeat(self): ...\n"
                "class Remote(_Worker):\n    def heartbeat(self): ...\n"
            )
        }
        router = "def tick(workers):\n    for worker in workers:\n        worker.heartbeat()\n"
        return Census(package, {"pkg.router": router})

    declared = census("    def heartbeat(self): ...\n")
    assert declared.used("pkg.worker.Local.heartbeat")
    assert declared.used("pkg.worker.Remote.heartbeat")
    undeclared = census("    pass\n")
    assert not undeclared.used("pkg.worker.Local.heartbeat")
    assert not undeclared.used("pkg.worker.Remote.heartbeat")


def test_an_annotation_mentions_a_class_but_uses_only_a_protocol():
    package = {
        "pkg.model": (
            "from typing import Protocol\n\n"
            "class Completer(Protocol):\n    def complete(self): ...\n\n"
            "class Task:\n    def fqcn(self): ...\n\n"
            "class Module:\n    def fqcn(self): ...\n"
        ),
    }

    def census(annotation: str) -> Census:
        caller = (
            f"def run(tasks: {annotation}) -> 'Completer':\n"
            "    for task in tasks:\n        task.fqcn()\n"
        )
        return Census(package, {"bench.py": caller})

    annotated = census("list[Task]")
    # annotation, a forward reference here, is a protocol's one use
    assert annotated.used("pkg.model.Completer")
    assert not annotated.used("pkg.model.Task")  # annotated, never built or called
    assert annotated.used("pkg.model.Task.fqcn")  # the mention types the loop's receiver
    assert not annotated.used("pkg.model.Module.fqcn")
    assert not census("list").used("pkg.model.Task.fqcn")
