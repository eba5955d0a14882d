"""The package holds no dead code and exports only its library API.

Every top-level function, class and method under src/rtcode must be used
by the program itself: a console script named in pyproject.toml, or named
somewhere under src/rtcode outside the re-exports of __init__.py, by
module-level code or by a definition that is used in turn (its own
definition does not count).  The only exceptions are the reference
implementations in REFERENCE_ONLY, which tests compare production code
against, each with the test that uses it, and the definitions in
USED_BY_REFERENCE_ONLY, which only those references use, each with a
reference that uses it.

A method counts as used where an attribute of its name is read, unless
every such read is a call whose arguments its signature cannot take: a
call x.check(n) does not keep alive a check method that needs two
arguments.

Every parameter with a default on a public function or method must be
set by some call under src/rtcode, by keyword or by position, through
the function's name or an alias of it.  A None argument sets nothing,
and one that only passes on a parameter of the calling function sets
nothing unless that parameter is set in turn: a defaulted one, or any
parameter of a private function.  The only exceptions are the options
in SET_BY_TESTS_ONLY, each with the test function that sets it.
"""
import ast
import re
from pathlib import Path

import rtcode

SRC = Path(rtcode.__file__).parent
TESTS = Path(__file__).parent
PYPROJECT = TESTS.parent / "pyproject.toml"

REFERENCE_ONLY = {
    "baselines.binary_shannon_closed_form":
        "test_baselines.py::test_shannon_limit_matches_closed_form_binary",
    "bayes.bayes_envelope":
        "test_scenarios.py::"
        "test_feedback_complete_reward_is_first_marginal_envelope",
    "bayes.belief_update_feedback":
        "test_scenarios.py::"
        "test_feedback_complete_transition_matches_belief_oracle",
    "bayes.belief_update_memory":
        "test_scenarios.py::"
        "test_nofeedback_transition_matches_memory_belief_oracle",
    "bayes.belief_update_sideinfo_memory":
        "test_vending.py::test_vending_nofeedback_reward_matches_enumeration",
    "lookahead.TupleCodec.decode":
        "test_lookahead.py::test_codec_tables_match_scalar_ops",
    "lookahead.TupleCodec.shift":
        "test_lookahead.py::test_codec_tables_match_scalar_ops",
    "mdp.FiniteMdp.dense":
        "test_scenarios.py::"
        "test_feedback_one_step_transition_matches_enumeration",
    "mdp.FiniteMdp.from_dense": "conftest.py::random_unichain_mdp",
    "mdp.exhaustive_policy_search":
        "test_mdp.py::test_rvi_matches_exhaustive_search_on_random_instances",
}

USED_BY_REFERENCE_ONLY = {
    "bayes._belief_array": "bayes.belief_update_feedback",
    "bayes._check_transition": "bayes.belief_update_memory",
    "bayes._memory_table": "bayes.belief_update_memory",
    "errors.UnreachableObservationError": "bayes.belief_update_feedback",
    "infotheory.binary_entropy": "baselines.binary_shannon_closed_form",
    "lookahead.TupleCodec.component":
        "bayes.belief_update_sideinfo_memory",
    "mdp.evaluate_policy": "mdp.exhaustive_policy_search",
    "mdp.PolicyEvaluation": "mdp.evaluate_policy",
    "models.VendingSpec.row": "bayes.belief_update_sideinfo_memory",
}


# The argument list of the CLI entry point.
SET_BY_TESTS_ONLY = {
    "cli.main.argv": "test_cli.py::_run",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(modules):
    """(key, node) for every top-level function and class and every
    method other than dunders; key is module.qualname."""
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{mod}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("__")):
                        yield f"{mod}.{node.name}.{sub.name}", sub


def _accepts(method: ast.FunctionDef, call: ast.Call) -> bool:
    """Whether a call through an instance or class could bind to method."""
    args = method.args
    params = args.posonlyargs + args.args
    decorators = {d.id for d in method.decorator_list
                  if isinstance(d, ast.Name)}
    if "property" in decorators:
        return False
    if "staticmethod" not in decorators:
        params = params[1:]
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return True
    names = {p.arg for p in params} | {a.arg for a in args.kwonlyargs}
    if args.kwarg is None and any(k.arg not in names for k in call.keywords):
        return False
    if args.vararg is None and len(call.args) > len(params):
        return False
    given = len(call.args) + sum(
        k.arg in {p.arg for p in params[len(call.args):]}
        for k in call.keywords)
    return given >= len(params) - len(args.defaults)


def _inside(ref, node, parents) -> bool:
    while ref in parents:
        ref = parents[ref]
        if ref is node:
            return True
    return False


def _users(modules):
    """key -> the keys of the definitions that use it, with None for a use
    by module-level code.  A use is attributed to the innermost
    definition around it."""
    parents = {child: node for tree in modules.values()
               for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    defs = dict(_definitions(modules))
    owner = {node: key for key, node in defs.items()}

    def enclosing(ref):
        while ref in parents:
            ref = parents[ref]
            if ref in owner:
                return owner[ref]
        return None

    names, attrs = {}, {}
    for mod, tree in modules.items():
        if mod == "__init__":
            continue
        for ref in ast.walk(tree):
            if isinstance(ref, ast.Name):
                names.setdefault(ref.id, []).append(ref)
            elif isinstance(ref, ast.Attribute):
                attrs.setdefault(ref.attr, []).append(ref)
    out = {}
    for key, node in defs.items():
        is_method = key.count(".") == 2
        refs = attrs.get(node.name, []) + (
            [] if is_method else names.get(node.name, []))
        out[key] = set()
        for ref in refs:
            if _inside(ref, node, parents):
                continue
            call = parents.get(ref)
            if (is_method and isinstance(call, ast.Call)
                    and call.func is ref and not _accepts(node, call)):
                continue
            out[key].add(enclosing(ref))
    return out


def _unused(users):
    """The definitions that no console script or module-level code
    reaches through a chain of uses."""
    live = {f"{mod}.{func}" for mod, func in re.findall(
        r'"rtcode\.(\w+):(\w+)"', PYPROJECT.read_text(encoding="utf-8"))}
    grew = True
    while grew:
        reached = {key for key, by in users.items()
                   if None in by or by & live}
        grew = not reached <= live
        live |= reached
    return set(users) - live


def test_every_definition_is_used_or_a_named_reference():
    unused = _unused(_users(_modules()))
    named = set(REFERENCE_ONLY) | set(USED_BY_REFERENCE_ONLY)
    assert sorted(unused - named) == []
    # an entry the program now uses is no longer reference-only
    assert sorted(named - unused) == []


def test_used_by_reference_only_entries_name_a_reference_that_uses_them():
    users = _users(_modules())
    for key, by in USED_BY_REFERENCE_ONLY.items():
        assert by in REFERENCE_ONLY or by in USED_BY_REFERENCE_ONLY, key
        assert by in users[key], f"{by} does not use {key}"


def test_reference_only_entries_name_a_test_that_uses_them():
    for key, where in REFERENCE_ONLY.items():
        path, test = where.split("::")
        tree = ast.parse((TESTS / path).read_text(encoding="utf-8"))
        funcs = [n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == test]
        assert funcs, f"{where} does not exist"
        name = key.rsplit(".", 1)[1]
        seen = {n.id for n in ast.walk(funcs[0]) if isinstance(n, ast.Name)}
        seen |= {n.attr for n in ast.walk(funcs[0])
                 if isinstance(n, ast.Attribute)}
        assert name in seen, f"{where} does not use {key}"


def test_public_names_resolve_and_are_all_that_init_imports():
    assert len(rtcode.__all__) == len(set(rtcode.__all__)) <= 40
    for name in rtcode.__all__:
        assert getattr(rtcode, name, None) is not None, name
    tree = _modules()["__init__"]
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported == set(rtcode.__all__)


def _signatures(modules):
    """name -> [(key, node, skip)] for every function and method of
    _definitions, and for every module-level alias of one; skip is the
    number of leading parameters (self) that a call does not pass."""
    out = {}
    for key, node in _definitions(modules):
        if isinstance(node, ast.FunctionDef):
            bound = key.count(".") == 2 and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            out.setdefault(node.name, []).append((key, node, int(bound)))
    for tree in modules.values():
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in out):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out.setdefault(target.id, []).extend(
                            out[node.value.id])
    return out


def _defaulted(node: ast.FunctionDef) -> list[str]:
    args = node.args
    params = args.posonlyargs + args.args
    names = [p.arg for p in params[len(params) - len(args.defaults):]]
    return names + [k.arg for k, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]


def _bound(call: ast.Call, node: ast.FunctionDef, skip: int):
    """(parameter, argument) for each parameter of node that call passes;
    the argument is None where *args or **kwargs may pass it."""
    args = node.args
    params = [p.arg for p in (args.posonlyargs + args.args)[skip:]]
    everything = params + [k.arg for k in args.kwonlyargs]
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return [(p, None) for p in everything]
    return (list(zip(params, call.args))
            + [(k.arg, k.value) for k in call.keywords])


def _called_name(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _unset_options(modules):
    """module.qualname.parameter for every defaulted parameter of a public
    function or method that no call under src/rtcode sets."""
    sigs = _signatures(modules)
    keys = {id(node): key for entries in sigs.values()
            for key, node, _ in entries}
    parents = {child: node for tree in modules.values()
               for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}

    def passed_on(expr, at):
        """(key, parameter) when expr only passes on a parameter of the
        function around at that callers may leave unset, else None."""
        if not isinstance(expr, ast.Name):
            return None
        while at in parents:
            at = parents[at]
            if isinstance(at, (ast.FunctionDef, ast.Lambda)):
                args = at.args
                names = {a.arg for a in (args.posonlyargs + args.args
                                         + args.kwonlyargs)}
                if expr.id in names:
                    if (isinstance(at, ast.FunctionDef) and id(at) in keys
                            and (at.name.startswith("_")
                                 or expr.id in _defaulted(at))):
                        return keys[id(at)], expr.id
                    return None
        return None

    done, passes = set(), []
    for tree in modules.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            for key, node, skip in sigs.get(_called_name(call), ()):
                for param, expr in _bound(call, node, skip):
                    if isinstance(expr, ast.Constant) and expr.value is None:
                        continue
                    source = passed_on(expr, call)
                    if source is None:
                        done.add((key, param))
                    else:
                        passes.append(((key, param), source))
    grew = True
    while grew:
        grew = False
        for target, source in passes:
            if source in done and target not in done:
                done.add(target)
                grew = True
    return {f"{key}.{param}"
            for entries in sigs.values() for key, node, _ in entries
            if not any(part.startswith("_") for part in key.split(".")[1:])
            for param in _defaulted(node) if (key, param) not in done}


def test_every_public_option_is_set_by_the_program():
    unset = _unset_options(_modules())
    assert sorted(unset - set(SET_BY_TESTS_ONLY)) == []
    # an option the program now sets needs no exception
    assert sorted(set(SET_BY_TESTS_ONLY) - unset) == []


def test_options_set_by_tests_name_a_test_that_sets_them():
    sigs = _signatures(_modules())
    for option, where in SET_BY_TESTS_ONLY.items():
        key, param = option.rsplit(".", 1)
        name = key.rsplit(".", 1)[1]
        path, func = where.split("::")
        tree = ast.parse((TESTS / path).read_text(encoding="utf-8"))
        found = [n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == func]
        assert found, f"{where} does not exist"
        node, skip = next((n, k) for kk, n, k in sigs[name] if kk == key)
        assert any(param in dict(_bound(call, node, skip))
                   for call in ast.walk(found[0])
                   if isinstance(call, ast.Call)
                   and _called_name(call) == name), \
            f"{where} does not set {option}"
