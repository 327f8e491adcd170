"""The built-in plants' drifts written straight from their equations, as an
oracle that does not share the program's split into linear terms and remainder."""


def paper_drift(p, x1, x2, v):
    """The drift f(x1, x2, v) of the built-in plant p and the terms it sums."""
    q = p.params
    if p.kind == "vdp_like":
        return -x1 * x2 + q["mu1"] * x2 * (1.0 - x1 ** 2) + q["a_w"] * v[0], [
            x1 * x2, q["mu1"] * x2, q["mu1"] * x2 * x1 ** 2, q["a_w"] * v[0]]
    terms = [q["k1"] * x1, q["k2"] * x1 ** 3, q["mu1"] * x2, q["mu2"] * x2 ** 3,
             q["a_w"] * v[1] * (1.0 - v[0] ** 2)]
    return -sum(terms) / q["m"], [t / q["m"] for t in terms]
