"""The three workload pools and the seeded draw of a run's job list.

A pool is a list of slots.  A slot lists interchangeable variants of one
CLI job that cost about the same: the oracle's primes come from a band 4%
wide, every other slot has one variant.  One round of a job list takes one
variant from every slot; the rounds are shuffled together.  Whole rounds
keep the work of a run the same for every seed, so the spread between seeds
measures the machine, not the draw.
"""

import random

WORKLOADS = ("tables", "oracle", "n1")

# Seconds one round of any pool takes on the 2-core x86 box where the pools
# were sized, at the commit that defined the benchmark.  A run of `seconds`
# seconds holds round(seconds / ROUND_SECONDS) rounds, at least one.
ROUND_SECONDS = 22.0

# The trivial call whose median wall time is setup_s: interpreter start-up
# plus importing the package.
TRIVIAL = ("patterns", "--rank", "1", "--l", "0", "--count-only")


def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def primes_in_band(n, lo):
    """Primes p = 1 mod n with lo <= p < 1.04 lo."""
    return [p for p in range(lo, lo * 104 // 100)
            if (p - 1) % n == 0 and _is_prime(p)]


def _rank(l):
    return str(l.count(",") + 1)


def hcoeff(l, n):
    return ("hcoeff", "--rank", _rank(l), "--l", l, "--n", str(n))


def stable(l, n, p):
    return ("verify", "stable", "--rank", _rank(l), "--l", l,
            "--n", str(n), "--p", str(p))


def gauss(n, p):
    return ("verify", "gauss", "--n", str(n), "--p", str(p))


def verify(what, l):
    return ("verify", what, "--rank", _rank(l), "--l", l)


def euler(m, bound):
    return ("euler", "--rank", _rank(m), "--m", m, "--bound", str(bound))


# Rank-3 tables at n = 1 (dense q-polynomials) and odd n (symbol values,
# early zero exit), plus the 65,536-pattern rank-4 table.
TABLES = [[hcoeff(l, n)] for l, n in (
    ("1,1,1", 1), ("0,1,1", 1), ("1,0,1", 1), ("1,0,0", 1),
    ("1,1,1", 3), ("1,1,1", 7), ("2,1,0", 9), ("1,0,0", 3),
    ("0,1,1", 3), ("0,1,1", 5), ("0,1,1", 7), ("0,1,1", 9),
    ("1,0,1", 3), ("1,0,1", 5), ("1,0,1", 7), ("1,0,1", 9),
    ("0,1,0", 5), ("0,1,0", 7), ("0,0,1", 9), ("0,0,0,0", 3))]

# Stable agreement with a numeric check at p between 10^3 and 10^4, every n
# at or above the twist's stability bound; Gauss sums against brute force.
ORACLE = [[stable(l, n, p) for p in primes_in_band(n, lo)] for l, n, lo in (
    ("0", 3, 1000), ("2", 3, 5000), ("4", 5, 3000), ("1", 9, 9000),
    ("0,0", 3, 3000), ("1,0", 5, 3000), ("0,1", 5, 9000),
    ("1,1", 7, 3000), ("2,1", 9, 5000), ("0,0", 9, 9000),
    ("0,0,0", 5, 3000), ("1,0,0", 7, 3000), ("1,0,0", 9, 3000),
    ("0,1,0", 7, 3000), ("0,0,0", 5, 9000), ("0,0,1", 7, 5000))]
ORACLE += [[gauss(n, p)] for n, p in (
    (1, 7), (1, 11), (1, 13), (3, 7), (3, 13), (5, 11))]

# The n = 1 identities and global coefficients.
N1 = [[verify("cs", l)] for l in (
    "0,0", "1,1", "2,1", "3,1", "0,0,0", "0,0,1", "1,0,0", "0,1,0")]
N1 += [[verify("hamel-king", l)] for l in (
    "1,1", "2,1", "0,0,0", "0,1,0", "1,0,0", "2,0,0", "1,1,1")]
N1 += [[verify("lemma4", l)] for l in (
    "2,1", "0,0,0", "1,0,0", "0,1,1", "2,0,0")]
N1 += [[euler(m, bound)] for m, bound in (
    ("12", 1000), ("30", 1500), ("18", 2000), ("20", 2500), ("30", 3000),
    ("2,3", 30), ("3,2", 60), ("2,9", 100), ("6,4", 100))]

POOLS = {"tables": TABLES, "oracle": ORACLE, "n1": N1}

# One cheap pool entry per subcommand: the untimed warm-up pass compiles
# every module and fills the page cache before anything is timed.
WARMUP = {
    "tables": [hcoeff("0,1,1", 7)],
    "oracle": [ORACLE[0][0], gauss(1, 7)],
    "n1": [verify("cs", "0,0"), verify("hamel-king", "1,1"),
           verify("lemma4", "2,1"), euler("2,3", 30)],
}


def pool_entries(workload):
    """Every job the workload can draw, in pool order."""
    return [argv for slot in POOLS[workload] for argv in slot]


def draw_jobs(workload, seed, seconds):
    """The ordered job list of one run; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    rounds = max(1, round(seconds / ROUND_SECONDS))
    jobs = [rng.choice(slot) for _ in range(rounds)
            for slot in POOLS[workload]]
    rng.shuffle(jobs)
    return jobs
