"""A change of coordinates on the curves of ``dioph6.weierstrass``, for the
tests that check an answer is the same on every model of a curve."""

from fractions import Fraction

from dioph6.weierstrass import INFINITY, Curve, Point


def change_model(curve: Curve, u, r=0, point: Point = INFINITY) -> tuple[Curve, Point]:
    """The model of ``curve`` in the coordinates x = u^2 x' + r, y = u^3 y',
    and the image (x', y') of ``point`` on it.

    Substituting into y^2 = f(x) = x^3 + a2 x^2 + a4 x + a6 gives
    y'^2 = x'^3 + (a2 + 3r)/u^2 x'^2 + f'(r)/u^4 x' + f(r)/u^6.
    """
    u, r = Fraction(u), Fraction(r)
    a2, a4, a6 = curve.a2, curve.a4, curve.a6
    moved = Curve(
        (a2 + 3 * r) / u**2,
        ((3 * r + 2 * a2) * r + a4) / u**4,
        (((r + a2) * r + a4) * r + a6) / u**6,
    )
    if point.is_infinity:
        return moved, INFINITY
    return moved, Point((point.x - r) / u**2, point.y / u**3)
