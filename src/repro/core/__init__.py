"""The Thorin graph IR: types, defs, world, scopes, CFG, schedule.

Import the submodules directly (``repro.core.world``,
``repro.core.types``, ...); the package itself loads none of them, so a
process that needs only :mod:`repro.core.canonical` (the compile
service's router) does not load the IR.
"""
