"""Sets built from graphs: an exact ground truth for the criterion at
supports of a prime per vertex, past the reach of galois_reference.

Take a graph G and distinct primes p_v, one per vertex, each prime to 2n,
and let A_G = {p_u/p_v : uv an edge}.  A point off every form of A_G in
the class t = 1, where the modulus is n itself, is x with x_u != x_v mod n
on every edge: a proper colouring of G with n colours, and the other
classes have smaller moduli.  So A_G holds at n exactly when the chromatic
number chi(G) exceeds n.

A graph is (vertex count, edges), the vertices 0 .. count - 1.  Nothing
here comes from locus: the primes by trial division, chi by backtracking.
"""

from itertools import combinations


def complete(m):
    """K_m, chi = m."""
    return m, tuple(combinations(range(m), 2))


def cycle(m):
    """C_m, chi = 2 for even m and 3 for odd m."""
    return m, tuple((v, (v + 1) % m) for v in range(m))


def petersen():
    """The Petersen graph: an outer 5-cycle, an inner pentagram and five
    spokes; chi = 3."""
    outer = tuple((v, (v + 1) % 5) for v in range(5))
    inner = tuple((5 + v, 5 + (v + 2) % 5) for v in range(5))
    return 10, outer + inner + tuple((v, 5 + v) for v in range(5))


def random_graph(m, prob, rng):
    """G(m, prob): each pair of the m vertices an edge with probability
    prob, drawn from the random.Random rng."""
    return m, tuple(e for e in combinations(range(m), 2) if rng.random() < prob)


def mycielski(graph):
    """Mycielski's construction (Colloq. Math. 3, 1955): a copy u_v of each
    vertex v joined to v's neighbours, and one more vertex joined to every
    u_v.  Triangle-free in, triangle-free out, and chi grows by one, so
    mycielski(cycle(5)) is the Groetzsch graph M4 with chi = 4."""
    m, edges = graph
    copies = tuple((m + a, b) for u, v in edges for a, b in ((u, v), (v, u)))
    return 2 * m + 1, edges + copies + tuple((m + v, 2 * m) for v in range(m))


def chromatic_number(graph):
    """The least k with a proper k-colouring, by backtracking over the
    vertices by falling degree, each taking a colour already used or the
    next new one; small graphs only (M5 takes about 0.2 s)."""
    m, edges = graph
    degree = [sum(v in e for e in edges) for v in range(m)]
    rank = {v: i for i, v in enumerate(sorted(range(m), key=lambda v: -degree[v]))}
    earlier = [[] for _ in range(m)]
    for u, v in edges:
        u, v = sorted((rank[u], rank[v]))
        earlier[v].append(u)

    def colour(v, colours, k, used):
        if v == m:
            return True
        for c in range(min(k, used + 1)):
            if all(colours[u] != c for u in earlier[v]):
                colours[v] = c
                if colour(v + 1, colours, k, max(used, c + 1)):
                    return True
        return False

    return next(k for k in range(1, m + 1) if colour(0, [None] * m, k, 0))


def _primes_prime_to(n):
    p = 3
    while True:
        if all(p % d for d in range(2, int(p**0.5) + 1)) and n % p:
            yield p
        p += 2


def graph_set(graph, n):
    """A_G as literals p_u/p_v, one per edge, with the odd primes prime to
    n taken in order, one per vertex."""
    m, edges = graph
    primes = [p for p, _ in zip(_primes_prime_to(n), range(m))]
    return [f"{primes[u]}/{primes[v]}" for u, v in edges]
