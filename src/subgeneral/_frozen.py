"""The base of the package's frozen value classes.

A value class annotates its fields in its body, in order; a default is a
class attribute of the field's name.  A class that defines no __init__ gets
one from the base: its parameters are the fields, in order, with those
defaults, and it stores each argument in the instance __dict__.  It is
generated source, exec'd once per class, so a call runs the same bytecode
as a hand-written one.  A class that normalizes its arguments keeps its own
__init__, which sets each field with object.__setattr__.  The base gives
what @dataclass(frozen=True) gave: assigning or deleting an attribute raises
AttributeError, == compares the field tuples of two objects of one class
(NotImplemented otherwise), the hash is the hash of the field tuple, so set
and dict orders and every report digest are those of the dataclass, and
repr is ClassName(field=value, ...).  Instances keep a __dict__, which
cached_property fills.

Building a dataclass imports dataclasses (with inspect, ast and dis) and
execs generated source for each class: most of the start-up of a one-shot
weil, norm or height command.  experiments keeps dataclasses, since
ExperimentConfig goes through dataclasses.replace (experiment --seed) and
only the experiment commands import experiments.
"""

from operator import attrgetter


class Frozen:
    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        # the field's value, or the tuple of several, in one C call, so ==
        # and hash cost about what the dataclass's generated methods did
        cls._key = staticmethod(attrgetter(*fields))
        if "__init__" not in cls.__dict__:
            cls.__init__ = _storing_init(cls, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        key = self._key(self)
        return hash(key if len(self._fields) > 1 else (key,))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )


def _storing_init(cls, fields):
    """The __init__ of a class that defines none: each field a parameter, in
    order, defaulting to the class attribute of its name, and stored by one
    write to the instance __dict__ (a third of the time of object.__setattr__)."""
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    params = ["self"] + [
        "%s=_defaults[%r]" % (name, name) if name in defaults else name for name in fields
    ]
    body = ["d = self.__dict__"] + ["d[%r] = %s" % (name, name) for name in fields]
    source = "def __init__(%s):\n    %s\n" % (", ".join(params), "\n    ".join(body))
    namespace = {}
    exec(source, {"_defaults": defaults}, namespace)
    init = namespace["__init__"]
    init.__qualname__ = cls.__qualname__ + ".__init__"
    init.__module__ = cls.__module__
    return init
