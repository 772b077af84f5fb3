"""What each workload builds once before its first request.

This module imports nothing, so that setup_timer.py can time a fresh
interpreter's `import satfrac, satfrac.cli` plus a workload's set-up
before the benchmark loads any other module.  A set-up takes the
imported satfrac package and the toy flag, and returns the bases that
its workload's requests look up (None when there are none).
"""

# walk: the full basis of n x n and the degree-2 basis of m x m
WALK_SHAPES = {False: {"full": 6, "swap": 20}, True: {"full": 4, "swap": 6}}
# fiber: a full basis for each shape that verify_connectivity runs on
FIBER_SHAPES = {False: [(4, 4), (4, 5), (5, 4)], True: [(3, 3), (3, 4), (4, 3)]}


def no_setup(sf, toy: bool):
    return None


def walk_setup(sf, toy: bool) -> dict:
    n, m = WALK_SHAPES[toy]["full"], WALK_SHAPES[toy]["swap"]
    return {"full": sf.markov.markov_basis(n, n),
            "swap": sf.markov.markov_basis(m, m, max_degree=2)}


def fiber_setup(sf, toy: bool) -> dict:
    return {(I, J): sf.markov.markov_basis(I, J) for I, J in FIBER_SHAPES[toy]}


SETUPS = {"enumerate": no_setup, "certify": no_setup, "walk": walk_setup, "fiber": fiber_setup}
