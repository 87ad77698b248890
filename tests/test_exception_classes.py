"""The exception classes in the code are the pinned ones, each defined in
exactly one module: a module that binds one under its name binds that class,
never a copy of its own."""

import importlib
import pkgutil

import symlie


def modules():
    return [importlib.import_module(f"symlie.{info.name}")
            for info in pkgutil.iter_modules(symlie.__path__)]


def exception_classes():
    """Every exception class that symlie defines, mapped to the modules
    (symlie and each submodule) that bind it at the top level."""
    found = {}
    for module in [symlie] + modules():
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__.startswith("symlie.")):
                found.setdefault(obj, set()).add(module.__name__)
    return found


EXCEPTION_CLASSES = {
    "cli.EvalError", "cli.ParseError", "cli._UsageError",
    "plethysm.LeadingTermError",
    "series.ConstantTermError", "series.NonUnitConstantError",
    "symfunc.HomogeneityError",
}


def test_exception_classes_are_the_pinned_ones():
    defined = [f"{cls.__module__[len('symlie.'):]}.{cls.__name__}"
               for cls in exception_classes()]
    assert sorted(defined) == sorted(EXCEPTION_CLASSES)


def test_each_exception_class_is_defined_in_one_module():
    # one class per name: a module that binds the name binds the same class
    names = [cls.__name__ for cls in exception_classes()]
    assert len(names) == len(set(names))
    for module in [symlie] + modules():
        for name, obj in vars(module).items():
            if isinstance(obj, type) and issubclass(obj, BaseException):
                assert obj.__name__ == name, (module.__name__, name)


def test_constant_term_error_is_one_class():
    from symlie import plethysm, series

    assert symlie.ConstantTermError is plethysm.ConstantTermError is series.ConstantTermError
    assert exception_classes()[series.ConstantTermError] >= {
        "symlie", "symlie.plethysm", "symlie.series"}


def test_cli_binds_no_library_exception_class():
    # cli maps a library error to an EvalError by catching ValueError alone
    bound = {cls.__module__ for cls, where in exception_classes().items()
             if "symlie.cli" in where}
    assert bound == {"symlie.cli"}
