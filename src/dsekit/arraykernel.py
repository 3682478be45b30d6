"""The array kernel of a traced machine formula: straight-line NumPy
source with the bits of the formula evaluated on floats with math.

dsekit.machine imports this module when it builds its first array
kernel, on a map's first call above its crossover, so that importing the
package does not compile it.
"""

from __future__ import annotations

import numpy as np

from .machine import _ROW_NAMES, _Tape, _Traced, _Vec, _identity

# The ufunc of each traced operation.  np.float_power is the C pow that
# math.pow calls, where np.power squares an array in a way that differs in
# the last bit.
UFUNCS = {
    "({} + {})": "add", "({} - {})": "subtract", "({} * {})": "multiply",
    "({} / {})": "divide", "(-{})": "negative", "sin({})": "sin", "cos({})": "cos",
    "pow({}, {})": "float_power",
}
# The names the emitted source reads.
NAMESPACE = {name: getattr(np, name) for name in (*UFUNCS.values(), "array", "asarray", "empty")}


def _key(values) -> tuple:
    return tuple(map(_identity, values))


def array_source(tape: _Tape, leaves: tuple, outputs: tuple) -> list:
    """The array kernel's make.  Each operation on the state is one ufunc
    call on (N,) rows, and a vector operation one on (len, N) arrays.  A
    vector operand that no vector operation gave (RK4's stage rates), and
    the outputs, are a buffer whose rows its components write as their
    out=; every other operation on the state writes a row of one scratch
    array, and a vector operation a (len, N) buffer, each taken over from
    a value read for the last time where there is one.  Every scalar
    operand is a 0-d array: the constants, the literals and what depends
    on the constants alone, made once per make, and the inputs and what
    depends on them, once per call."""
    nodes = list(tape.values())
    vectors = {_key(vec): vec for vec in tape.vectors}
    names = {key: f"r{r}" for r, key in enumerate(vectors)}
    names[_key(leaves[:4])] = "x"
    # the vector operation that computed a node, and the node's index in it
    owner = {id(c): (key, i) for key, vec in vectors.items() for i, c in enumerate(vec)}
    # the tape position of the last read of each value (a node, or a
    # vector by its key), the vector operations whose rows are read, and
    # the buffers by key with the rows their components claim or are
    # copied into
    last, rows, buffers, claims, copies = {}, set(), {}, {}, {}

    def operands(vec):
        # per operand: what all components share, or the vector of theirs
        for column in zip(*(c.args for c in vec)):
            yield column[0] if len(set(_key(column))) == 1 else _Vec(column)

    def read(x, at):
        # x, a node, a literal or a vector operand, is read at position at
        if isinstance(x, _Vec):
            key = _key(x)
            if key not in names and key not in buffers:
                claim(x, f"p{len(buffers)}", at)
        elif id(x) in owner:
            key = owner[id(x)][0]
            rows.add(key)
        else:
            key = id(x)
        last.setdefault(key, at)

    def claim(vec, name, at):
        """Make vector vec, read at at, the buffer name: each component
        that can write its row as its operation's out= claims it, the
        rest are copied in before the buffer's first read."""
        buffers[_key(vec)], copies[_key(vec)] = name, []
        for i, c in enumerate(vec):
            if isinstance(c, _Traced) and c.level == 2 and c.args and not (
                id(c) in owner or id(c) in claims
            ):
                claims[id(c)] = f"{name}[{i}]"
            else:
                copies[_key(vec)].append((i, c))
                read(c, at)

    # the last reads of what the outputs depend on; the tape records
    # operands before the operations that use them
    out_key = _key(outputs)
    last[out_key] = len(nodes)
    if names.get(out_key, "x") == "x":
        claim(outputs, "o", len(nodes))
    for at in reversed(range(len(nodes))):
        node = nodes[at]
        if id(node) in owner:
            key, i = owner[id(node)]
            if i == 0 and key in last:
                for op in operands(vectors[key]):
                    read(op, at)
        elif node.args and (id(node) in last or id(node) in claims):
            for a in node.args:
                read(a, at)

    literals, factory, body = {}, [], []
    text = {id(leaf): leaf.text for leaf in leaves}
    # the buffers that hold live values, by key, and the free ones: rows
    # of the scratch array and (len, N) vectors by length
    held = {key: name for key, name in buffers.items() if name != "o"}
    free, spare, made = [], {}, 0

    def fill(key):
        # the copies into a buffer, before its first read
        body.extend(f"{buffers[key]}[{i}] = {source(c)}" for i, c in copies.pop(key, ()))

    def source(x):
        if isinstance(x, _Vec):
            if _key(x) in names:
                return names[_key(x)]
            fill(_key(x))
            return buffers[_key(x)]
        if id(x) in owner:
            key, i = owner[id(x)]
            return f"{names[key]}_{i}"
        if isinstance(x, _Traced):
            return text[id(x)]
        return literals.setdefault(x.hex(), (f"l{len(literals)}", x))[0]

    def call(op, args, out=""):
        return f"{UFUNCS[op]}({', '.join(map(source, args))}{out})"

    def release(values, at):
        # free the buffers of the values read for the last time at at
        for x in values:
            if isinstance(x, _Vec):
                release(x, at)
                key = _key(x)
                # a buffer's components that claimed its rows may be read on
                dying = all(last.get(id(c), at) <= at for c in x)
            else:
                key, dying = owner[id(x)][0] if id(x) in owner else id(x), True
            if key in held and last[key] == at and dying:
                pool = free if isinstance(key, int) else spare.setdefault(len(key), [])
                pool.append(held.pop(key))

    for at, node in enumerate(nodes):
        if id(node) in owner:
            key, i = owner[id(node)]
            if i or key not in last:
                continue
            ops = list(operands(vectors[key]))
            args = ", ".join(map(source, ops))
            release(ops, at)
            pool = spare.get(len(key))
            out = "o" if key == out_key else pool.pop() if pool else None
            name = held[key] = names[key]
            body.append(f"{name} = {UFUNCS[node.text]}({args}{f', out={out}' if out else ''})")
            if key in rows:
                body.append(f"{', '.join(f'{name}_{j}' for j in range(len(key)))} = {name}")
        elif node.args and (id(node) in last or id(node) in claims):
            if node.level < 2:
                lines = factory if node.level == 0 else body
                text[id(node)] = f"{'sv'[node.level]}{len(lines)}"
                lines.append(f"{text[id(node)]} = asarray({call(node.text, node.args)})")
                continue
            args = ", ".join(map(source, node.args))
            release(node.args, at)
            out = claims.get(id(node))
            if out is None:
                if not free:
                    free.append(f"b{made}")
                    made += 1
                out = held[id(node)] = free.pop()
            body.append(f"{UFUNCS[node.text]}({args}, out={out})")
            text[id(node)] = out
    fill(out_key)
    constants = [c.text for c in leaves[8:]]
    # a vector operation reads the state whole, faster from a contiguous
    # copy; the rows alone read as fast from the caller's array
    state = "x.T.copy()" if _key(leaves[:4]) in last else "x.T"
    return [
        f"def make({', '.join(constants)}):",
        *(f"    {c} = array({c})" for c in constants),
        *(f"    {name} = array({value!r})" for name, value in literals.values()),
        *(f"    {line}" for line in factory),
        "    def run(x, u):",
        "        n = len(x)",
        f"        o = empty((n, {len(outputs)})).T",
        f"        x = {state}",
        f"        {', '.join(_ROW_NAMES[:4])} = x",
        *(f"        {leaf.text} = u[..., {j}]"
          for j, leaf in enumerate(leaves[4:8]) if id(leaf) in last),
        *(f"        {name} = empty(({len(key)}, n))"
          for key, name in buffers.items() if name != "o"),
        *([f"        {''.join(f'b{j}, ' for j in range(made))}= empty(({made}, n))"]
          if made else []),
        *(f"        {line}" for line in body),
        "        return o.T",
        "    return run",
    ]
