"""Alternating least squares matrix factorization for explicit 1-5 ratings.

Each sweep alternates two half-steps: re-solve every user row with the item
factors fixed, then every item row with the user factors fixed.  A row's
normal equations are

    (Y_u' Y_u + lambda * n_u * I_k) x_u = Y_u' r_u

where ``Y_u`` stacks the fixed factors of the row's observed partners, and
``n_u`` is the row's observation count (weighted regularization).  The k x k
system is solved by Cholesky factorization.  A row narrower than the rank
(padded width w < k, below) is solved in dual form when lambda > 0: with
c = lambda * n_u, the push-through identity

    (Y_u' Y_u + c I_k)^-1 Y_u' r_u = Y_u' (Y_u Y_u' + c I_w)^-1 r_u

gives the same x_u from a w x w system, whose smallest eigenvalue is never
below the k x k one's.  The identity needs c > 0; at lambda = 0 every row
keeps the k x k system, so a singular one is still named by its row.  The
training objective recorded after every half-step is the matching weighted
form

    J = sum_observed (r_ui - x_u . y_i)^2
        + lambda * (sum_u n_u ||x_u||^2 + sum_i n_i ||y_i||^2)

which each half-step minimizes exactly in its free block, so the loss trace
is non-increasing.  ``train`` computes it from the two CSRs the half-steps
solve (below); one chunked residual sum backs its fit term, ``train_rmse``
and the held-out RMSE.

Each side of the ratings is held once as compressed sparse rows
(``RatingCSR``).  A half-step solves its rows in batches: rows are bucketed
by observation count rounded up to the nearest 2^e or 3 * 2^(e - 2) (widths
1, 2, 3, 4, 6, 8, 12, 16, 24, ...), so a row is padded by less than half its
count.  Each bucket's partner factors are gathered zero-padded to that width
(a zero row adds nothing to ``Y_u' Y_u`` or ``Y_u' r_u``), and each block of
a bucket is one stacked matrix product.  A block holds
``_BLOCK_ELEMENTS // (max(w, k) * k)`` rows of a k x k bucket, or
``_BLOCK_ELEMENTS // (w * k)`` of a dual one, and at least one row.  The
blocks' normal equations then go into solve batches of up to
``_SOLVE_ELEMENTS // k^2`` systems that span buckets, each one stacked
Cholesky factorization and one stacked pair of triangular solves.  A block
solved in dual form is one such solve of its own, on w x w systems, in
which a padding slot's zero row leaves c alone on its diagonal and a zero
in its right-hand side, so it adds nothing to x_u.  The residual sum
gathers ``_BLOCK_ELEMENTS // k`` ratings' factor rows at a time, so a fit's
gathers, normal matrices and residuals stay within a few of these bounds
(or one row's gather, when that is larger) whatever the data size.  Block and
batch boundaries and the choice of form depend only on the data and the
rank, and every system and every residual is computed with the same
arithmetic in any block or batch, so training is bit-reproducible for a
fixed seed.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, SolveError, check_type

MAX_RANK = 200
_OBJECTIVE_CHUNK = 1 << 16
# Elements per gather block (512 KiB of float64): a k x k bucket's block rows x
# max(bucket width, rank) x rank, a dual bucket's block rows x width x rank,
# and the residual sum's sub-block rows x rank.  A solve batch holds
# _SOLVE_ELEMENTS // rank^2 rows; a smaller batch runs the triangular solves'
# 2k einsum calls more often and is slower.  _BLOCK_ELEMENTS <= _SOLVE_ELEMENTS
# keeps every k x k block within one batch.  Constants, so block and batch
# boundaries never depend on anything but the data and the rank.
_BLOCK_ELEMENTS = 1 << 16
_SOLVE_ELEMENTS = 1 << 17

@dataclass(frozen=True)
class TrainConfig:
    rank: int = 30
    iterations: int = 10
    regularization: float = 0.1
    seed: int = 42

    def __post_init__(self):
        if not 1 <= self.rank <= MAX_RANK:
            raise ConfigError(f"rank must be in 1..{MAX_RANK}, got {self.rank}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not self.regularization >= 0:
            raise ConfigError(f"regularization must be >= 0, got {self.regularization}")
        try:  # an integer from a config file may be past the largest float
            regularization = float(self.regularization)
        except OverflowError:
            raise ConfigError("regularization must be finite and >= 0, got an integer "
                              "too large for a float") from None
        if not math.isfinite(regularization):
            raise ConfigError(
                f"regularization must be finite and >= 0, got {self.regularization}")
        object.__setattr__(self, "regularization", regularization)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class FactorModel:
    """Dense user and item factor matrices plus the training hyperparameters."""

    user_factors: np.ndarray
    item_factors: np.ndarray
    rank: int
    regularization: float
    seed: int | None = None

    def __post_init__(self):
        self.user_factors = np.asarray(self.user_factors, dtype=np.float64)
        self.item_factors = np.asarray(self.item_factors, dtype=np.float64)
        if self.user_factors.ndim != 2 or self.item_factors.ndim != 2:
            raise ValueError("factor matrices must be 2-D")
        if self.user_factors.shape[1] != self.rank or self.item_factors.shape[1] != self.rank:
            raise ValueError("factor matrix width must equal the rank")
        if not (
            np.isfinite(self.user_factors).all() and np.isfinite(self.item_factors).all()
        ):
            raise ValueError("factor matrices must be finite")

    @property
    def num_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_factors.shape[0]


@dataclass
class LossTrace:
    """Objective value J recorded after every half-step."""

    values: list[float] = field(default_factory=list)

    def is_non_increasing(self, rel_tol: float = 1e-9) -> bool:
        return all(
            later <= earlier + rel_tol * max(abs(earlier), abs(later), 1e-12)
            for earlier, later in zip(self.values, self.values[1:])
        )


_NOT_TRIPLES = "ratings must be triples of (user_index, item_index, rating)"


def _triples(ratings, dtype=None) -> np.ndarray:
    """An (N, 3) array-like of (user_index, item_index, rating) rows as an array.

    An array, a list of RatingTriples and a list of plain tuples all convert
    the same way; a row with another number of fields, in any position, is a
    ValueError.  An empty input gives a (0, 3) array.
    """
    try:
        arr = np.asarray(ratings, dtype=dtype)
    except ValueError:
        if np.asarray(ratings, dtype=object).ndim > 1:
            raise  # rows of one width holding a value that is not a number
        raise ValueError(_NOT_TRIPLES) from None
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(_NOT_TRIPLES)
    return arr


def _columns(ratings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The user and item index columns (intp) and the rating column (float64) of
    ``_triples(ratings)``, which must be nonempty, finite and hold whole-number
    indices below 2^53 in magnitude (a float64 past that skips integers)."""
    arr = _triples(ratings, np.float64)
    if arr.size == 0:
        raise ValueError("ratings must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError("ratings must hold finite indices and ratings")
    indices = arr[:, :2]
    if not (np.trunc(indices) == indices).all():
        raise ValueError("user and item indices must be whole numbers")
    if not (np.abs(indices) < 2.0**53).all():
        raise ValueError("user and item indices must be below 2**53 in magnitude")
    return indices[:, 0].astype(np.intp), indices[:, 1].astype(np.intp), arr[:, 2]


def init_model(num_users: int, num_items: int, config: TrainConfig) -> FactorModel:
    """Seeded uniform [0, 1) entries scaled by 1/sqrt(rank).

    The same seed always yields bit-identical matrices: the user matrix is
    drawn first, then the item matrix, from one PCG64 stream.
    """
    if num_users < 1 or num_items < 1:
        raise ConfigError("need at least one user and one item")
    rng = np.random.default_rng(config.seed)
    scale = 1.0 / np.sqrt(config.rank)
    user = rng.random((num_users, config.rank)) * scale
    item = rng.random((num_items, config.rank)) * scale
    return FactorModel(
        user_factors=user,
        item_factors=item,
        rank=config.rank,
        regularization=config.regularization,
        seed=config.seed,
    )


class RatingCSR(Sequence):
    """One side of the ratings in compressed sparse rows.

    Row ``r``'s partners are ``partners[indptr[r]:indptr[r + 1]]`` and its
    ratings the same slice of ``values``, in the order the ratings came in.
    Reads as a sequence of per-row ``(partners, values)`` views made on
    demand.
    """

    __slots__ = ("indptr", "partners", "values")

    def __init__(self, indptr: np.ndarray, partners: np.ndarray, values: np.ndarray):
        self.indptr, self.partners, self.values = indptr, partners, values

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        row = range(len(self))[row]
        lo, hi = self.indptr[row], self.indptr[row + 1]
        return self.partners[lo:hi], self.values[lo:hi]

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        bounds = self.indptr.tolist()
        return (
            (self.partners[lo:hi], self.values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        )


def _csr(
    indices: np.ndarray, partners: np.ndarray, values: np.ndarray, size: int, side: str
) -> RatingCSR:
    """Rows ``range(size)`` of the ratings, each row's entries in input order."""
    if indices.min() < 0 or indices.max() >= size:
        raise ValueError(f"{side} index out of range")
    order = np.argsort(indices, kind="stable")
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(indices, minlength=size), out=indptr[1:])
    return RatingCSR(indptr, partners[order], values[order])


def _grouped(columns, num_users: int, num_items: int) -> tuple[RatingCSR, RatingCSR]:
    """The user side and the item side of ``_columns`` output as CSRs; every user
    index must be in ``range(num_users)`` and every item index in ``range(num_items)``."""
    users, items, values = columns
    by_user = _csr(users, items, values, num_users, "user")
    return by_user, _csr(items, users, values, num_items, "item")


def _cholesky_solve(normal: np.ndarray, rhs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Solve a stack of positive-definite systems by Cholesky factorization.

    ``rows`` names the systems for the error raised when one is not positive
    definite.  The triangular solves run column by column across the stack.
    """
    try:
        lower = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError:
        for row, matrix in zip(rows, normal):
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError as exc:
                raise SolveError(f"singular normal matrix for row {row}: {exc}") from exc
        raise
    k = rhs.shape[1]
    z = np.empty_like(rhs)
    for j in range(k):  # L z = rhs
        z[:, j] = (rhs[:, j] - np.einsum("bi,bi->b", lower[:, j, :j], z[:, :j])) / lower[:, j, j]
    x = np.empty_like(rhs)
    for j in reversed(range(k)):  # L' x = z
        x[:, j] = (
            z[:, j] - np.einsum("bi,bi->b", lower[:, j + 1 :, j], x[:, j + 1 :])
        ) / lower[:, j, j]
    return x


def solve_half_step(
    fixed: np.ndarray,
    rows: RatingCSR,
    regularization: float,
    current: np.ndarray,
) -> np.ndarray:
    """Re-solve every free row against the fixed side; returns a new matrix.

    ``rows`` holds each free row's partners and ratings (one side of
    ``_grouped``).  Rows with no observations keep their current values.
    Rows are bucketed by observation count rounded up to the nearest 2^e or
    3 * 2^(e - 2), and their normal equations are formed a bucket block at a
    time and solved in batches that span buckets.  When ``regularization`` > 0, a bucket
    narrower than the rank solves each block as w x w dual systems instead
    (see the module docstring); at 0 the dual matrix of a padded or
    rank-deficient row is singular, so every bucket stays in k x k form.
    Raises :class:`SolveError` naming a row whose normal matrix is not
    positive definite.
    """
    out = np.array(current, dtype=np.float64, copy=True)
    counts = np.diff(rows.indptr)
    solved = np.flatnonzero(counts)
    if solved.size == 0:
        return out
    k = fixed.shape[1]
    starts = rows.indptr[:-1]
    # The padding slot is one past the last observation: a zero partner row
    # and a zero rating.
    pad = len(rows.partners)
    partners = np.append(rows.partners, len(fixed))
    values = np.append(rows.values, 0.0)
    padded_fixed = np.vstack([fixed, np.zeros((1, k))])
    # Each count rounded up to a power of two p = 2 ** bit_length(n - 1), or to
    # 3p / 4 when that holds it: widths 1, 2, 3, 4, 6, 8, 12, 16, 24, ...
    power = np.left_shift(1, np.frexp(counts[solved] - 1)[1])
    widths = np.where(counts[solved] > power * 3 // 4, power, power * 3 // 4)
    diagonal = np.arange(k)
    batch = min(_SOLVE_ELEMENTS // (k * k), solved.size)
    batch_rows = np.empty(batch, dtype=np.intp)
    batch_normal = np.empty((batch, k, k))
    batch_rhs = np.empty((batch, k))

    def solve(filled: int) -> None:
        done = batch_rows[:filled]
        out[done] = _cholesky_solve(batch_normal[:filled], batch_rhs[:filled], done)

    filled = 0
    for width in np.unique(widths).tolist():
        bucket = solved[widths == width]
        slots = np.arange(width)
        dual = width < k and regularization > 0
        block = max(1, _BLOCK_ELEMENTS // ((width if dual else max(width, k)) * k))
        for lo in range(0, len(bucket), block):
            chunk = bucket[lo : lo + block]
            n = counts[chunk]
            pos = np.where(slots < n[:, None], starts[chunk][:, None] + slots, pad)
            gathered = padded_fixed[partners[pos]]
            transposed = gathered.transpose(0, 2, 1)
            if dual:  # x = Y'(YY' + c I_w)^-1 r
                gram = gathered @ transposed
                gram[:, slots, slots] += regularization * n[:, None]
                z = _cholesky_solve(gram, values[pos], chunk)
                out[chunk] = (transposed @ z[:, :, None])[:, :, 0]
                continue
            if filled + len(chunk) > batch:
                solve(filled)
                filled = 0
            span = slice(filled, filled + len(chunk))
            normal = np.matmul(transposed, gathered, out=batch_normal[span])
            normal[:, diagonal, diagonal] += regularization * n[:, None]
            batch_rhs[span] = (transposed @ values[pos][:, :, None])[:, :, 0]
            batch_rows[span] = chunk
            filled += len(chunk)
    if filled:
        solve(filled)
    return out


def objective(
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    ratings,
    regularization: float,
) -> float:
    """Weighted-regularization training objective J over the observed triples."""
    by_user, by_item = _grouped(_columns(ratings), len(user_factors), len(item_factors))
    return _loss(user_factors, item_factors, by_user, by_item, regularization)


def _loss(user_factors: np.ndarray, item_factors: np.ndarray, by_user: RatingCSR,
          by_item: RatingCSR, regularization: float) -> float:
    """``objective`` of ratings already grouped; the fit term sums in ``by_user`` order."""
    user_counts, item_counts = np.diff(by_user.indptr), np.diff(by_item.indptr)
    users = np.repeat(np.arange(len(by_user)), user_counts)
    fit = _squared_error(user_factors, item_factors, (users, by_user.partners, by_user.values))
    reg = regularization * (
        float(user_counts @ row_dots(user_factors, user_factors))
        + float(item_counts @ row_dots(item_factors, item_factors))
    )
    return fit + reg


def _squared_error(user_factors: np.ndarray, item_factors: np.ndarray, columns) -> float:
    """Sum of (r - x_u . y_i)^2 over (user, item, rating) ``columns``.

    Each ``_OBJECTIVE_CHUNK`` of residuals is summed on its own and the sums
    added in order; the factor rows behind a chunk are gathered
    ``_BLOCK_ELEMENTS // k`` ratings at a time into one residual buffer.
    """
    users, items, values = columns
    step = max(1, _BLOCK_ELEMENTS // user_factors.shape[1])
    residual = np.empty(min(len(values), _OBJECTIVE_CHUNK))
    total = 0.0
    for lo in range(0, len(values), _OBJECTIVE_CHUNK):
        hi = min(lo + _OBJECTIVE_CHUNK, len(values))
        chunk = residual[: hi - lo]
        for sub in range(lo, hi, step):
            end = min(sub + step, hi)
            chunk[sub - lo : end - lo] = row_dots(user_factors[users[sub:end]],
                                                  item_factors[items[sub:end]])
        np.subtract(values[lo:hi], chunk, out=chunk)
        total += float(np.sum(np.square(chunk, out=chunk)))
    return total


def train(
    ratings,
    num_users: int,
    num_items: int,
    config: TrainConfig,
    initial: FactorModel | None = None,
) -> tuple[FactorModel, LossTrace]:
    """Run ``config.iterations`` full sweeps of alternating half-steps.

    Args:
        ratings: an (N, 3) array-like of (user, item, rating) rows, such as
            an array or a list of RatingTriples.
        num_users / num_items: matrix dimensions; every index must be in range.
        config: rank, iterations, regularization, seed.
        initial: start from these factors instead of a fresh seeded init.

    Returns:
        The trained model and the loss trace with one J value per half-step.
    """
    by_user, by_item = _grouped(_columns(ratings), num_users, num_items)
    lam = config.regularization
    trace = LossTrace()
    model = _fit(
        by_user,
        by_item,
        config,
        initial,
        lambda users, items: trace.values.append(_loss(users, items, by_user, by_item, lam)),
    )
    return model, trace


def _fit(
    by_user: RatingCSR,
    by_item: RatingCSR,
    config: TrainConfig,
    initial: FactorModel | None = None,
    after_half_step: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> FactorModel:
    """``train`` on ratings already grouped, without the loss trace.

    ``after_half_step(user_factors, item_factors)``, when given, is called
    after every half-step.
    """
    num_users, num_items = len(by_user), len(by_item)
    if initial is None:
        initial = init_model(num_users, num_items, config)
    elif initial.user_factors.shape != (num_users, config.rank) or initial.item_factors.shape != (
        num_items,
        config.rank,
    ):
        raise ConfigError("initial model shape does not match (num_users, num_items, rank)")

    user_factors, item_factors = initial.user_factors, initial.item_factors
    lam = config.regularization
    # the rating count bounds every row's n in lambda * n, and the first loss's weights
    count = len(by_user.values)
    if math.isinf(lam * count):
        raise ConfigError(f"regularization {lam} times the {count} ratings overflows a float")
    for _ in range(config.iterations):
        user_factors = solve_half_step(item_factors, by_user, lam, user_factors)
        if after_half_step is not None:
            after_half_step(user_factors, item_factors)
        item_factors = solve_half_step(user_factors, by_item, lam, item_factors)
        if after_half_step is not None:
            after_half_step(user_factors, item_factors)

    return FactorModel(
        user_factors=user_factors,
        item_factors=item_factors,
        rank=config.rank,
        regularization=lam,
        seed=initial.seed if initial.seed is not None else config.seed,
    )


def row_dots(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcasting the leading axes.

    Every score in the package comes from this one kernel, so ``predict``,
    ``top_k``, ``rmse``, ``train_rmse`` and the objective agree to the bit.
    ``np.einsum`` without ``optimize`` does not call BLAS: it sums each row's
    products in the same order whatever the batch, so ``row_dots(V, u)[i]``
    equals ``row_dots(V[i], u)`` for any strides or memory order of ``V``.
    (``np.dot`` and matrix-vector products round differently from one another.)
    """
    return np.einsum("...j,...j->...", left, right)


def predict(model: FactorModel, user_index: int, item_index: int) -> float:
    """Unclamped dot product of the two factor rows."""
    if not 0 <= user_index < model.num_users:
        raise IndexError(f"user index {user_index} out of range")
    if not 0 <= item_index < model.num_items:
        raise IndexError(f"item index {item_index} out of range")
    return float(row_dots(model.item_factors[item_index], model.user_factors[user_index]))


def train_rmse(model: FactorModel, ratings) -> float:
    """Root mean squared residual of the model on the given triples."""
    columns = _columns(ratings)
    squared = _squared_error(model.user_factors, model.item_factors, columns)
    return float(np.sqrt(squared / len(columns[2])))


_MODEL_FORMAT = "als-factor-model"


def save_model(model: FactorModel, path: str | Path) -> None:
    """Write the model container: a JSON manifest line, then two .npy blobs.

    The byte content is a pure function of the model, so identical models
    produce identical files.
    """
    header = {
        "format": _MODEL_FORMAT,
        "version": 1,
        "rank": model.rank,
        "regularization": model.regularization,
        "seed": model.seed,
        "num_users": model.num_users,
        "num_items": model.num_items,
    }
    # checked before the file opens: a value JSON cannot hold, or that load_model
    # refuses, leaves no file behind
    line = json.dumps(header, sort_keys=True, allow_nan=False) + "\n"
    _check_header(header, path)
    with open(path, "wb") as handle:
        handle.write(line.encode("utf-8"))
        np.save(handle, np.ascontiguousarray(model.user_factors), allow_pickle=False)
        np.save(handle, np.ascontiguousarray(model.item_factors), allow_pickle=False)


def load_model(path: str | Path) -> FactorModel:
    """Read a container written by :func:`save_model`.

    Raises ``ValueError`` when the file is not such a container, is
    truncated, its header disagrees with the arrays it holds, or a header
    field is out of its type or range (the error names the field).
    """
    with open(path, "rb") as handle:
        try:
            header = json.loads(handle.readline().decode("utf-8"))
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != _MODEL_FORMAT:
            raise ValueError(f"{path}: not a factor-model container")
        if header.get("version") != 1:
            raise ValueError(f"{path}: unsupported model version {header.get('version')!r}")
        try:
            user_factors = np.load(handle, allow_pickle=False)
            item_factors = np.load(handle, allow_pickle=False)
        except (EOFError, ValueError) as exc:
            raise ValueError(f"{path}: truncated or corrupt factor data: {exc}") from None
        if handle.read(1):
            raise ValueError(f"{path}: unexpected bytes after the factor data")
    rank = header.get("rank")
    declared = ((header.get("num_users"), rank), (header.get("num_items"), rank))
    found = (user_factors.shape, item_factors.shape)
    if declared != found:
        raise ValueError(f"{path}: header declares factor shapes {declared}, file holds {found}")
    _check_header(header, path)
    return FactorModel(user_factors=user_factors, item_factors=item_factors, rank=rank,
                       regularization=header["regularization"], seed=header["seed"])


def _check_header(header: dict, path: str | Path) -> None:
    """A ValueError naming ``path`` and the field when a model header field is
    missing or out of its type or range."""
    try:
        regularization, seed = header["regularization"], header["seed"]
    except KeyError as exc:
        raise ValueError(f"{path}: header lacks {exc}") from None
    for key in ("rank", "num_users", "num_items", "seed"):
        check_type(header[key], int, f"{path}: header field {key!r}", ValueError,
                   optional=key == "seed")
    check_type(regularization, float, f"{path}: header field 'regularization'", ValueError)
    if not 0 <= regularization < math.inf:
        raise ValueError(f"{path}: header field 'regularization' must be finite and >= 0, "
                         f"got {regularization!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"{path}: header field 'seed' must be >= 0, got {seed!r}")
