"""Support code for the apolar benchmark (``perfbench/run.py``).

Nothing here changes the program under test: spans and operation counts
are taken by temporarily replacing attributes of the ``apolar`` modules and
scalar classes from the outside, and every replacement is undone when its
pass ends.
"""
