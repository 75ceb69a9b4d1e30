"""Finite real trigonometric series: construction, evaluation, derivative.

A series is stored densely as cosine coefficients ``b[0..J]`` and sine
coefficients ``a[0..J]`` and represents

    s(theta) = sum_j a_j sin(j theta) + b_j cos(j theta).

``sample(N)`` gives s on the uniform grid 2 pi i / N with one inverse real
FFT; it needs N > 2J, so that the grid resolves every mode, and refuses a
coarser grid.  ``evaluate`` takes arbitrary angles.

``a_0`` is identically absent (sin(0) == 0): any nonzero input there is
discarded with a warning.  The coefficients of an instance never change, so
the constructor builds the values that depend on them alone: the two-sided
spectrum (``_spectrum``: F_m of s = sum_m F_m e^{i m theta}, m = -J..J), the
Euclidean norm of all the coefficients (``_norm``) and ``sum_of_squares``.
The samples of the last grid ``sample`` was asked for (one grid at a time)
and the series ``derivative`` returns are computed on first use and kept.
Every kept array is read-only, so values can be shared freely between
threads: two threads that ask for the same lazy value first may both
compute it, and both get equal results.
"""

import json
import math
import warnings

import numpy as np
import numpy.fft  # numpy loads it lazily; import it with the package, not mid-command

MODE_CAP = 64


def _as_coeff_array(values, name):
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name}: expected a 1-d coefficient array")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: coefficients must be finite")
    return arr


def _nonzero_map(values):
    """{"j": values[j]} for every j with a nonzero value."""
    modes = np.flatnonzero(values)
    return dict(zip(map(str, modes.tolist()), values[modes].tolist()))


def _build_spectrum(b, a):
    """The two-sided spectrum of FourierSeries._spectrum for coefficients b, a, as a read-only array."""
    half = 0.5 * (b - 1j * a)
    half[0] = b[0]
    spectrum = np.concatenate([np.conj(half[:0:-1]), half])
    spectrum.flags.writeable = False
    return spectrum


class FourierSeries:
    """Immutable finite Fourier series with cosine part ``b`` and sine part ``a``.

    The two-sided spectrum, the coefficient norm and the sum of squares are
    built with the series; the samples of the last grid and the derivative
    are computed on first use and kept (see the module docstring).

    Parameters
    ----------
    b : array-like, optional
        Cosine coefficients, index = mode (``b[0]`` is the constant term).
    a : array-like, optional
        Sine coefficients, index = mode.  Position 0 is meaningless and is
        discarded with a warning if nonzero.
    cap : int
        Largest admissible mode index; a larger nonzero mode is refused.
    """

    __slots__ = ("a", "b", "_samples", "_derivative", "_two_sided", "_coefficient_norm", "_squares")

    def __init__(self, b=None, a=None, cap=MODE_CAP):
        b = _as_coeff_array(b if b is not None else [0.0], "b")
        a = _as_coeff_array(a if a is not None else [0.0], "a")
        if a[0] != 0.0:
            warnings.warn("sine coefficient at mode 0 is meaningless; discarding it")
        n = max(b.size, a.size)
        bb = np.zeros(n)
        aa = np.zeros(n)
        bb[: b.size] = b
        aa[: a.size] = a
        aa[0] = 0.0
        # trim trailing zeros so max_mode is tight
        j = n - 1
        while j > 0 and bb[j] == 0.0 and aa[j] == 0.0:
            j -= 1
        bb, aa = bb[: j + 1], aa[: j + 1]
        if j > cap:
            raise ValueError(f"mode {j} exceeds the cap {cap}")
        bb.flags.writeable = aa.flags.writeable = False
        self.b, self.a = bb, aa
        self._two_sided = _build_spectrum(bb, aa)
        self._coefficient_norm = math.hypot(*aa.tolist(), *bb.tolist())
        with np.errstate(over="ignore"):  # finite coefficients past about 1e154 square to inf
            self._squares = float(np.dot(aa[1:], aa[1:]) + np.dot(bb[1:], bb[1:]))
        self._samples = self._derivative = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, value):
        return cls(b=[float(value)])

    @classmethod
    def cosine(cls, mode, amplitude=1.0, cap=MODE_CAP):
        b = np.zeros(mode + 1)
        b[mode] = amplitude
        return cls(b=b, cap=cap)

    @classmethod
    def from_dict(cls, data):
        """Build a series from ``{"a": {...}, "b": {...}}`` JSON-style data.

        Coefficient maps use string mode indices; dense lists are also
        accepted, with index = position.
        """
        if not isinstance(data, dict):
            raise ValueError("rho: expected a JSON object with 'a'/'b' entries")
        unknown = set(data) - {"a", "b"}
        if unknown:
            raise ValueError(f"rho: unknown keys {sorted(unknown)}")
        out = {}
        for name in ("a", "b"):
            entry = data.get(name)
            if entry is None:
                entry = {}
            elif isinstance(entry, (list, tuple)):
                entry = dict(enumerate(entry))
            elif not isinstance(entry, dict):
                raise ValueError(f"rho.{name}: expected a map or a list")
            out[name] = {}
            for key, value in entry.items():
                try:
                    mode = int(key)
                except (TypeError, ValueError):
                    raise ValueError(f"rho.{name}: bad mode index {key!r}") from None
                if mode < 0:
                    raise ValueError(f"rho.{name}: negative mode index {mode}")
                try:
                    out[name][mode] = float(value)
                except (TypeError, ValueError, OverflowError):
                    got = json.dumps(value, default=repr)
                    raise ValueError(f"rho.{name}.{key}: expected a number, got {got}") from None
        # only nonzero modes size the arrays, so a zero at a huge mode costs
        # nothing and a mode above the cap is refused before any array is sized
        # by it; a non-finite value is reported first, as __init__ does
        nonzero = {name: {m: v for m, v in out[name].items() if v != 0.0} for name in ("b", "a")}
        for name, coeffs in nonzero.items():
            _as_coeff_array(list(coeffs.values()), f"rho.{name}")
        top = max((mode for coeffs in nonzero.values() for mode in coeffs), default=0)
        if top > MODE_CAP:
            raise ValueError(f"rho: mode {top} exceeds the cap {MODE_CAP}")
        dense = {name: np.zeros(top + 1) for name in nonzero}
        for name, coeffs in nonzero.items():
            dense[name][list(coeffs)] = list(coeffs.values())
        return cls(b=dense["b"], a=dense["a"])

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep to parse
            raise ValueError(f"rho: invalid JSON ({exc})") from None
        return cls.from_dict(data)

    def to_dict(self):
        """{"a": {...}, "b": {...}} of the nonzero modes; new dicts on every call."""
        return {"a": _nonzero_map(self.a), "b": _nonzero_map(self.b)}

    # -- basic queries -----------------------------------------------------

    @property
    def max_mode(self):
        """Largest index carrying a nonzero coefficient (0 for the zero series)."""
        return self.b.size - 1

    def coeff(self, j):
        """(a_j, b_j) for j >= 0, zero-padded beyond the stored range."""
        if j < 0:
            raise ValueError(f"coeff expects j >= 0, got {j}")
        if j >= self.b.size:
            return (0.0, 0.0)
        return (self.a.item(j), self.b.item(j))

    def sum_of_squares(self):
        """sum_{j>=1} (a_j^2 + b_j^2), built with the series (inf where it overflows float64)."""
        return self._squares

    def _norm(self):
        """|(a, b)|, the Euclidean norm of all the coefficients, built with the series."""
        return self._coefficient_norm

    def _spectrum(self):
        """F_m at index m + J, m = -J..J (J = max_mode), read-only, built with the series.

        s(theta) = sum_m F_m e^{i m theta} with F_0 = b_0 and
        F_{+-j} = (b_j -+ i a_j)/2, so F_{-m} = conj F_m.
        """
        return self._two_sided

    # -- evaluation and calculus -------------------------------------------

    def evaluate(self, theta):
        """Evaluate the series at angle(s) theta (scalar or array, radians).

        Returns a float for a scalar or 0-d theta, else an array of theta's
        shape.  Uses Horner's rule in z = e^{i theta} on
        s(theta) = Re sum_j (b_j - i a_j) z^j: one complex multiply-add per
        mode over the points, with no table of angles.
        """
        theta_arr = np.asarray(theta, dtype=float)
        z = np.exp(1j * theta_arr)
        coeffs = self.b - 1j * self.a
        acc = np.full(theta_arr.shape, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc *= z
            acc += c
        if np.isscalar(theta) or theta_arr.ndim == 0:
            return float(acc.real)
        return acc.real.copy()

    def sample(self, num_points):
        """s(2 pi i / N) for i = 0..N-1, N = num_points, as a read-only array.

        One inverse real FFT of X_j = N F_j, j = 0..J, from the kept spectrum.
        A grid of N <= 2J points would alias the modes of s, so it is a ValueError.
        The array of the last N asked for is kept, so asking again for the
        same grid returns it without computing; another N replaces it.
        """
        values = self._samples
        if values is not None and values.size == num_points:
            return values
        if num_points <= 2 * self.max_mode:
            raise ValueError(f"{num_points} points cannot resolve mode {self.max_mode}: "
                             f"sample needs more than {2 * self.max_mode}")
        spectrum = np.zeros(num_points // 2 + 1, dtype=complex)
        spectrum[: self.b.size] = num_points * self._two_sided[self.max_mode :]
        values = np.fft.irfft(spectrum, num_points)
        values.flags.writeable = False
        self._samples = values
        return values

    def derivative(self):
        """Term-by-term derivative: b'_j = j a_j, a'_j = -j b_j.

        A coefficient that overflows float64 is refused, on every call, with
        a message naming its mode; otherwise the constructor builds the
        series, capped at this series' top mode, once, and the same object
        is returned afterwards.
        """
        if self._derivative is None:
            modes = np.arange(self.b.size, dtype=float)
            b, a = modes * self.a, -modes * self.b
            overflow = np.flatnonzero(~(np.isfinite(b) & np.isfinite(a)))
            if overflow.size:
                raise ValueError(f"rho: mode {overflow[0]} is too large; its derivative overflows float64")
            self._derivative = FourierSeries(b=b, a=a, cap=self.max_mode)
        return self._derivative

    def __repr__(self):
        terms = []
        for j in range(self.b.size):
            if self.b[j] != 0.0:
                terms.append(f"b{j}={self.b[j]:g}")
            if self.a[j] != 0.0:
                terms.append(f"a{j}={self.a[j]:g}")
        return f"FourierSeries({', '.join(terms) or '0'})"
