"""numpy's names, loaded on the first attribute read of this module.

The other modules write ``from . import _numpy as np``, so ``import rareval``
loads no numpy and leaves ``sys.modules["numpy"]`` as it was. The first read
of a name, ``np.zeros`` say, runs ``import numpy`` under the import system's
lock, so two threads making it at once both get the whole module, and keeps
the name here: later reads are plain module lookups of numpy's own objects.
"""

from importlib.util import find_spec

if find_spec("numpy") is None:  # also when sys.modules["numpy"] is None
    raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
del find_spec


def __getattr__(name: str):
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value
