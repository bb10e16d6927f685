"""Setup shared by every test module."""

import warnings

# When a test fails, hypothesis imports its patch writer, and with it
# libcst, whose import raises a DeprecationWarning (mypy_extensions'
# TypedDict).  Under ``-W error`` that warning ends the whole pytest run
# with an internal error, before the falsifying example is printed.  Importing
# the module once here, with the warning ignored, keeps it out of the
# failure path.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
