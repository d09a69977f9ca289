import math

import numpy as np
import pytest

from attnlab.kernels import KERNELS, get_kernel

SMOOTH = ("identity", "exp")
KINKED = ("elu", "1+elu", "relu")  # second derivative jumps at 0


def central_diff(fn, x, h=1e-6):
    return (fn(np.asarray(x) + h) - fn(np.asarray(x) - h)) / (2 * h)


def test_registry_names():
    assert set(KERNELS) == {"identity", "exp", "elu", "1+elu", "relu"}
    with pytest.raises(ValueError):
        get_kernel("softplus")


def test_one_plus_elu_values():
    k = get_kernel("1+elu")
    assert k.apply(np.array(0.0)) == 1.0
    tail = float(k.apply(np.array(-30.0)))
    assert 0.0 < tail < 1e-12  # approaches zero from above, never reaches it
    assert float(k.apply(np.array(2.5))) == 3.5


def test_one_plus_elu_positive_everywhere():
    grid = np.linspace(-700, 700, 4001)
    vals = get_kernel("1+elu").apply(grid)
    assert np.all(vals > 0.0)


def test_elu_values():
    k = get_kernel("elu")
    assert float(k.apply(np.array(1.0))) == 1.0
    assert float(k.apply(np.array(-1.0))) == pytest.approx(math.exp(-1) - 1, abs=1e-15)


def test_stated_derivatives():
    assert float(get_kernel("exp").derivative(0.0)) == 1.0
    grid = np.linspace(-10, 10, 101)
    assert np.all(get_kernel("identity").derivative(grid) == 1.0)
    assert float(get_kernel("1+elu").derivative(-2.0)) == pytest.approx(
        math.exp(-2), abs=1e-15)
    # right-derivative convention at the kink
    assert float(get_kernel("relu").derivative(0.0)) == 1.0
    assert float(get_kernel("elu").derivative(0.0)) == 1.0


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_derivative_matches_central_difference(name):
    k = get_kernel(name)
    grid = np.linspace(-10.0, 10.0, 1000)
    if name in KINKED:
        grid = grid[np.abs(grid) >= 1e-4]
    err = np.abs(k.derivative(grid) - central_diff(k.apply, grid))
    # absolute 1e-7 wherever |f'| <= 1; relative where the difference quotient's
    # roundoff floor (~|f| eps/h) exceeds it, which only exp reaches on this grid
    tol = 1e-7 * np.maximum(1.0, np.abs(k.derivative(grid)))
    assert np.all(err <= tol)


@pytest.mark.parametrize("name", ["identity", "exp", "elu", "1+elu"])
def test_inverse_round_trip(name):
    k = get_kernel(name)
    ys = {"identity": np.linspace(-5, 5, 41),
          "exp": np.geomspace(1e-6, 100, 41),
          "elu": np.linspace(-0.99, 5, 41),
          "1+elu": np.geomspace(1e-8, 10, 41)}[name]
    back = k.apply(k.inverse(ys))
    assert np.max(np.abs(back - ys)) <= 1e-12 * np.max(np.abs(ys) + 1)


def test_relu_inverse_positive_ray_only():
    k = get_kernel("relu")
    ys = np.geomspace(1e-6, 10, 11)
    assert np.array_equal(k.apply(k.inverse(ys)), ys)
    with pytest.raises(ValueError):
        k.inverse(np.array([0.0]))


def test_inverse_domain_errors():
    with pytest.raises(ValueError):
        get_kernel("1+elu").inverse(np.array([-0.5]))
    with pytest.raises(ValueError):
        get_kernel("elu").inverse(np.array([-1.0]))


def test_nonnegative_flags():
    assert get_kernel("1+elu").nonnegative
    assert get_kernel("relu").nonnegative
    assert get_kernel("exp").nonnegative
    assert not get_kernel("identity").nonnegative
    assert not get_kernel("elu").nonnegative


def test_apply_featuremap_elementwise():
    m = np.array([[0.0, -1.0], [2.0, -30.0]])
    out = get_kernel("1+elu").apply(m)
    assert out.shape == m.shape
    assert out[0, 0] == 1.0
    assert out[1, 0] == 3.0
    assert 0 < out[1, 1] < 1e-12
