"""Static checks over the package's own source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphfusion"


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_every_private_helper_has_a_caller(module):
    # A module-level private function is meant for its own module only, so
    # one that the module never names again is a path with no caller.
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    private = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert sorted(private - named) == []


def ops_functions() -> dict[str, ast.FunctionDef]:
    tree = ast.parse((PACKAGE / "ops.py").read_text(), filename="ops.py")
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_no_conv_function_names_the_whole_map_frame():
    # Every conv band frames only its own rows (``_band_frames``), which the
    # band loops of the forward and of the kernel gradient iterate;
    # ``_framed``, which frames a whole map, serves the pools alone.
    functions = ops_functions()
    for name in ("_correlate", "_kernel_gradient", "conv2d"):
        named = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
        assert "_framed" not in named, name
        assert ("_band_frames" in named) == (name != "conv2d"), name


def test_kernel_gradient_takes_one_path_for_every_width():
    # Only a correlation picks gathered taps by its channel count; the kernel
    # gradient runs its per-tap views at every input width.
    fn = ops_functions()["_kernel_gradient"]
    named = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(fn)}
    assert not named & {"_VIEW_CHANNELS", "sliding_window_view"}


def calls_named(source: str, name: str) -> list[str]:
    """The functions that call ``name``, as ``name(...)`` or ``<anything>.name(...)``, each once."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = (n.func for n in ast.walk(fn) if isinstance(n, ast.Call))
        if any(getattr(f, "id", None) == name or getattr(f, "attr", None) == name for f in calls):
            found.append(fn.name)
    return found


@pytest.mark.parametrize("module", ["graph.py", "network.py"])
def test_network_makes_no_concatenation(module):
    # A conv reads a list of maps as their channels (``ops.conv2d``), so the
    # network never copies maps into a concatenated one, and no record keeps
    # such a copy of maps that other records already keep.
    assert calls_named((PACKAGE / module).read_text(), "concat_channels") == []


def test_call_rule_flags_either_spelling():
    source = (
        "def leader(nodes):\n"
        "    return ops.conv2d(ops.concat_channels(nodes), w, b)\n"
        "def head(a, b):\n"
        "    def inner():\n"
        "        return concat_channels([a, b])\n"
        "    return inner()\n"
        "def mix(a):\n"
        "    return ops.conv2d([a], w, b)\n"
    )
    assert calls_named(source, "concat_channels") == ["leader", "head", "inner"]


def closures_naming_tensors(source: str) -> list[str]:
    """``op.closure: name`` for each function nested in a top-level function that names one of its tensor parameters.

    A tensor parameter is one whose annotation mentions ``Tensor``
    (``Tensor``, ``Tensor | None``, ``Sequence[Tensor]``).
    """
    found = []
    for op in ast.parse(source).body:
        if not isinstance(op, ast.FunctionDef):
            continue
        args = op.args
        tensors = {
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
            if a.annotation is not None
            and any(isinstance(n, ast.Name) and n.id == "Tensor" for n in ast.walk(a.annotation))
        }
        for inner in ast.walk(op):
            if inner is op or not isinstance(inner, (ast.FunctionDef, ast.Lambda)):
                continue
            used = {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)} & tensors
            found += [f"{op.name}.{getattr(inner, 'name', '<lambda>')}: {name}" for name in sorted(used)]
    return found


def test_no_op_closure_names_a_tensor():
    # A backward closure holds its inputs' slots, shapes and the arrays it
    # reads; naming a tensor would keep the tensor's data alive on the tape.
    assert closures_naming_tensors((PACKAGE / "ops.py").read_text()) == []


def test_closure_rule_flags_a_backward_that_reads_its_input():
    source = (
        "def relu(x: Tensor, ys: Sequence[Tensor], b: Tensor | None, k: int) -> Tensor:\n"
        "    out = np.maximum(x.data, 0.0)\n"
        "    def backward(g):\n"
        "        accumulate(x, g * (x.data > 0) * k)\n"
        "    key = lambda: (ys, b)\n"
        "    return record_op(out, (x,), backward)\n"
    )
    assert closures_naming_tensors(source) == ["relu.backward: x", "relu.<lambda>: b", "relu.<lambda>: ys"]


def writes_grad(target: ast.expr) -> bool:
    """Whether ``target`` is a ``.grad`` attribute, or an element, slice or attribute of one."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(writes_grad(e) for e in target.elts)
    if isinstance(target, ast.Subscript):
        return writes_grad(target.value)
    if isinstance(target, ast.Attribute):
        return target.attr == "grad" or writes_grad(target.value)
    return False


def grad_writes(source: str) -> list[int]:
    """Lines that assign, augment or subscript-assign a ``.grad``, or pass one as a ufunc's ``out``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            targets = [kw.value for kw in node.keywords if kw.arg == "out"]
        else:
            continue
        lines += [node.lineno] * any(writes_grad(t) for t in targets)
    return sorted(lines)


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "tensor.py"))
def test_only_tensor_module_writes_gradients(module):
    # Ops compute gradient deltas and ``tensor.accumulate`` stores them: it
    # alone decides between copying a first write and adding into the slot.
    assert grad_writes((PACKAGE / module).read_text()) == []


def test_grad_write_rule_flags_every_form_of_write():
    source = (
        "def backward(g):\n"
        "    slot.grad = np.zeros(shape)\n"
        "    slot.grad[:, 0:2] += g\n"
        "    a, t.slot.grad = g, g\n"
        "    np.negative(g, out=slot.grad[rows])\n"
        "    grad: np.ndarray = slot.grad\n"
        "    g[slot.grad > 0] = 0\n"
        "    accumulate(slot, g)\n"
    )
    assert grad_writes(source) == [2, 3, 4, 5]
