"""Count the `Fraction`s a call builds.

A `Fraction` is built by its constructor, and from Python 3.12 on the
arithmetic operators build their results through the private
``Fraction._from_coprime_ints``; both are wrapped while the call runs.
"""
from fractions import Fraction

import pytest


def fractions_built(call):
    """``(call(), the number of Fractions built while it ran)``."""
    built = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counting_new)
        if "_from_coprime_ints" in vars(Fraction):
            coprime = vars(Fraction)["_from_coprime_ints"].__func__

            def counting_coprime(cls, numerator, denominator):
                built[0] += 1
                return coprime(cls, numerator, denominator)

            mp.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
        result = call()
    return result, built[0]
