"""Hypothesis settings profiles.

``ci`` changes nothing but ``print_blob``, so a failure prints the blob that
reproduces it with ``@reproduce_failure``; select it with
``pytest --hypothesis-profile=ci``.  Example counts and deadlines stay as
each test sets them.
"""
from hypothesis import settings

settings.register_profile("ci", print_blob=True)
