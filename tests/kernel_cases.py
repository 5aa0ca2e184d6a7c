"""Backend parametrization shared by the kernel-identity suites."""

import pytest

from repro.kernels import available_backends


def kernel_cases(names=None):
    """One ``pytest.param`` per kernel configuration under test.

    Every available backend in ``names`` (default: all of them), with the
    compiled ``native-mt`` backend run twice: inline at one thread (id
    ``native``, the serial case) and on an odd-width three-thread pool
    (id ``native-mt``). The thread count reaches the kernels through the
    ``kernel_threads`` marker, which ``conftest.py`` pins as the ambient
    ``thread_context`` for the test.
    """
    usable = available_backends()
    cases = []
    for name in usable if names is None else names:
        if name not in usable:
            continue
        if name == "native-mt":
            cases += [
                pytest.param(name, id="native",
                             marks=pytest.mark.kernel_threads(1)),
                pytest.param(name, id="native-mt",
                             marks=pytest.mark.kernel_threads(3)),
            ]
        else:
            cases.append(name)
    return cases
