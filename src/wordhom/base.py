"""Estimator plumbing: parameter introspection and input checks.

The mixin provides the get_params/set_params contract that ecosystem
tooling (cloning, grid search) duck-types against, without pulling in
a dependency for it.
"""

from __future__ import annotations


class ParamsMixin:
    """get_params/set_params backed by the __init__ signature.

    Subclasses keep every constructor argument as an attribute of the
    same name and do no work in __init__, so params can be swapped and
    the object refit.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        import inspect

        sig = inspect.signature(cls.__init__)
        return sorted(name for name in sig.parameters if name != "self")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "ParamsMixin":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise RuntimeError(
            f"this {type(estimator).__name__} instance is not fitted yet; call fit() first"
        )


def check_in_interval(value, name: str, low, high, *, low_open: bool = False) -> float:
    value = float(value)
    if low_open:
        ok = low < value <= high
        bounds = f"({low}, {high}]"
    else:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    if not ok:
        raise ValueError(f"{name} must lie in {bounds}, got {value}")
    return value


def check_positive_int(value, name: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value
