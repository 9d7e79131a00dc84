"""The flat per-cycle kernels (DESIGN.md: hotpath layer).

The per-cycle inner loops — the µcore ISS tick and the OoO core step —
live in :mod:`repro.hotpath.ucore_kernel` and
:mod:`repro.hotpath.ooo_kernel` as tight, fully annotated functions
over flat ``list[int]`` state, and :mod:`repro.hotpath.decode` turns
assembled µcore programs into the flat form they read.  Those modules
are the *only* implementation of the two ticks; the dense and event
loops both run them (``tests/test_loop_identity.py`` pins the two
loops bit-identical).
"""
