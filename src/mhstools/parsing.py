"""Parsing of inline scalar expressions.

Grammar: infix arithmetic (+ - * / ^ or **) over x, y, z, numeric literals
and the functions exp, log, sin, cos, sqrt, atan2.  `r` expands to the
cylindrical radius sqrt(x^2 + y^2); extra variable names (such as T for
quantities composed with a flux function) parse to placeholders that must be
substituted before evaluation.  Parsing is done on Python's own AST with a
strict whitelist; nothing is ever executed.
"""

from __future__ import annotations

import ast

from . import fields
from .fields import Placeholder, ScalarField, as_scalar


_FUNCS = {
    "exp": (fields.exp, 1),
    "log": (fields.log, 1),
    "sin": (fields.sin, 1),
    "cos": (fields.cos, 1),
    "sqrt": (fields.sqrt, 1),
    "atan2": (fields.atan2, 2),
}

_BASE_VARS = {
    "x": fields.X,
    "y": fields.Y,
    "z": fields.Z,
}


def parse_scalar(text: str, extra_vars: tuple[str, ...] = ()) -> ScalarField:
    """Parse an inline expression into a scalar field tree."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("empty expression")
    src = text.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise ValueError(f"cannot parse {text!r}: {e.msg}") from None

    names = dict(_BASE_VARS)
    names["r"] = fields.sqrt(fields.X**2 + fields.Y**2)
    for v in extra_vars:
        names[v] = Placeholder(v)

    def build(node) -> ScalarField:
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                return as_scalar(float(node.value))
            raise ValueError(f"literal {node.value!r} not allowed")
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            raise ValueError(f"unknown variable {node.id!r}")
        if isinstance(node, ast.UnaryOp):
            operand = build(node.operand)
            if isinstance(node.op, ast.USub):
                return -operand
            if isinstance(node.op, ast.UAdd):
                return operand
            raise ValueError("unsupported unary operator")
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                base = build(node.left)
                if not isinstance(node.right, (ast.Constant, ast.UnaryOp)):
                    raise ValueError("exponent must be a numeric literal")
                try:
                    e = ast.literal_eval(node.right)
                except ValueError:
                    raise ValueError("exponent must be a numeric literal") from None
                return base ** float(e)
            a, b = build(node.left), build(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                return a / b
            raise ValueError("unsupported binary operator")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ValueError("only plain function calls are allowed")
            fname = node.func.id
            if fname not in _FUNCS:
                raise ValueError(f"unknown function {fname!r}")
            fn, arity = _FUNCS[fname]
            if len(node.args) != arity:
                raise ValueError(f"{fname} takes {arity} argument(s)")
            return fn(*(build(a) for a in node.args))
        raise ValueError(f"disallowed syntax: {ast.dump(node)}")

    return build(tree)


def parse_univariate(text: str, var: str = "T") -> ScalarField:
    """Parse an expression in a single free variable (default T)."""
    return parse_scalar(text, extra_vars=(var,))
