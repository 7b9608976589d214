"""Edit-based (character-level) string similarity measures.

API follows py_stringmatching: each measure exposes ``get_raw_score`` (the
natural value of the measure, e.g. an edit distance) and, where a
normalized form exists, ``get_sim_score`` in [0, 1] where 1 means most
similar.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError


class Levenshtein:
    """Classic edit distance with unit insert/delete/substitute costs."""

    def get_raw_score(self, left: str, right: str) -> int:
        """Return the edit distance between two strings.

        Myers' bit-parallel algorithm in Hyyrö's formulation: bit ``i`` of
        ``plus``/``minus`` holds whether cell ``i`` of the current DP
        column is one more/less than the cell above it, so one text
        character advances a whole column with a handful of integer
        operations.  The shorter string is the pattern; Python ints have
        no width limit, so long patterns need no blocking.  The result
        equals the classic two-row dynamic program exactly.
        """
        if left == right:
            return 0
        if len(left) > len(right):
            left, right = right, left
        if not left:
            return len(right)
        match_masks: dict[str, int] = {}
        for i, ch in enumerate(left):
            match_masks[ch] = match_masks.get(ch, 0) | (1 << i)
        full = (1 << len(left)) - 1
        last = 1 << (len(left) - 1)
        plus, minus = full, 0
        distance = len(left)
        for ch in right:
            eq = match_masks.get(ch, 0)
            xv = eq | minus
            xh = (((eq & plus) + plus) ^ plus) | eq
            h_plus = minus | (full & ~(xh | plus))
            h_minus = plus & xh
            if h_plus & last:
                distance += 1
            elif h_minus & last:
                distance -= 1
            h_plus = (h_plus << 1) | 1
            h_minus <<= 1
            plus = full & (h_minus | ~(xv | h_plus))
            minus = h_plus & xv
        return distance

    def get_sim_score(self, left: str, right: str) -> float:
        """1 - distance / max_length, with two empty strings scoring 1."""
        max_len = max(len(left), len(right))
        if max_len == 0:
            return 1.0
        return 1.0 - self.get_raw_score(left, right) / max_len


class Hamming:
    """Number of positions at which equal-length strings differ."""

    def get_raw_score(self, left: str, right: str) -> int:
        if len(left) != len(right):
            raise ValueError(
                f"Hamming distance requires equal lengths "
                f"({len(left)} vs {len(right)})"
            )
        return sum(a != b for a, b in zip(left, right))

    def get_sim_score(self, left: str, right: str) -> float:
        if len(left) == 0:
            return 1.0
        return 1.0 - self.get_raw_score(left, right) / len(left)


class Jaro:
    """Jaro similarity: transposition-aware common-character measure."""

    def get_raw_score(self, left: str, right: str) -> float:
        if not left and not right:
            return 1.0
        if not left or not right:
            return 0.0
        window = max(len(left), len(right)) // 2 - 1
        window = max(window, 0)
        left_matched = [False] * len(left)
        right_matched = [False] * len(right)
        matches = 0
        for i, ch in enumerate(left):
            start = max(0, i - window)
            stop = min(i + window + 1, len(right))
            for j in range(start, stop):
                if not right_matched[j] and right[j] == ch:
                    left_matched[i] = True
                    right_matched[j] = True
                    matches += 1
                    break
        if matches == 0:
            return 0.0
        transpositions = 0
        j = 0
        for i, matched in enumerate(left_matched):
            if matched:
                while not right_matched[j]:
                    j += 1
                if left[i] != right[j]:
                    transpositions += 1
                j += 1
        transpositions //= 2
        return (
            matches / len(left)
            + matches / len(right)
            + (matches - transpositions) / matches
        ) / 3.0

    get_sim_score = get_raw_score


class JaroWinkler:
    """Jaro similarity boosted for strings sharing a common prefix."""

    def __init__(self, prefix_weight: float = 0.1):
        if not 0.0 <= prefix_weight <= 0.25:
            raise ConfigurationError(
                f"prefix_weight must be in [0, 0.25], got {prefix_weight}"
            )
        self.prefix_weight = prefix_weight
        self._jaro = Jaro()

    def get_raw_score(self, left: str, right: str) -> float:
        jaro = self._jaro.get_raw_score(left, right)
        prefix = 0
        for a, b in zip(left[:4], right[:4]):
            if a != b:
                break
            prefix += 1
        return jaro + prefix * self.prefix_weight * (1.0 - jaro)

    get_sim_score = get_raw_score


class NeedlemanWunsch:
    """Global alignment score with a linear gap penalty.

    ``sim_func`` scores a character pair (default: 1 if equal else 0) and
    ``gap_cost`` is subtracted per gap character.
    """

    def __init__(self, gap_cost: float = 1.0, sim_func=None):
        self.gap_cost = gap_cost
        self.sim_func = sim_func or (lambda a, b: 1.0 if a == b else 0.0)

    def get_raw_score(self, left: str, right: str) -> float:
        previous = [-self.gap_cost * j for j in range(len(right) + 1)]
        for i, ch_left in enumerate(left, start=1):
            current = [-self.gap_cost * i]
            for j, ch_right in enumerate(right, start=1):
                current.append(
                    max(
                        previous[j - 1] + self.sim_func(ch_left, ch_right),
                        previous[j] - self.gap_cost,
                        current[j - 1] - self.gap_cost,
                    )
                )
            previous = current
        return previous[-1]


class SmithWaterman:
    """Local alignment score (best-matching substring pair)."""

    def __init__(self, gap_cost: float = 1.0, sim_func=None):
        self.gap_cost = gap_cost
        self.sim_func = sim_func or (lambda a, b: 1.0 if a == b else 0.0)

    def get_raw_score(self, left: str, right: str) -> float:
        best = 0.0
        previous = [0.0] * (len(right) + 1)
        for ch_left in left:
            current = [0.0]
            for j, ch_right in enumerate(right, start=1):
                score = max(
                    0.0,
                    previous[j - 1] + self.sim_func(ch_left, ch_right),
                    previous[j] - self.gap_cost,
                    current[j - 1] - self.gap_cost,
                )
                current.append(score)
                best = max(best, score)
            previous = current
        return best


class Affine:
    """Affine-gap global alignment: opening a gap costs more than extending.

    Follows the standard Gotoh formulation with gap penalty
    ``gap_start + k * gap_continuation`` for a gap of length k+1.
    """

    def __init__(
        self, gap_start: float = 1.0, gap_continuation: float = 0.5, sim_func=None
    ):
        self.gap_start = gap_start
        self.gap_continuation = gap_continuation
        self.sim_func = sim_func or (lambda a, b: 1.0 if a == b else 0.0)

    def get_raw_score(self, left: str, right: str) -> float:
        neg_inf = float("-inf")
        n = len(right)
        # m: match/mismatch ending, x: gap in right, y: gap in left.
        m_prev = [0.0] + [neg_inf] * n
        x_prev = [neg_inf] * (n + 1)
        y_prev = [neg_inf] + [
            -self.gap_start - (j - 1) * self.gap_continuation for j in range(1, n + 1)
        ]
        for i, ch_left in enumerate(left, start=1):
            m_cur = [neg_inf] * (n + 1)
            x_cur = [neg_inf] * (n + 1)
            y_cur = [neg_inf] * (n + 1)
            x_cur[0] = -self.gap_start - (i - 1) * self.gap_continuation
            for j, ch_right in enumerate(right, start=1):
                score = self.sim_func(ch_left, ch_right)
                m_cur[j] = score + max(m_prev[j - 1], x_prev[j - 1], y_prev[j - 1])
                x_cur[j] = max(
                    m_prev[j] - self.gap_start, x_prev[j] - self.gap_continuation
                )
                y_cur[j] = max(
                    m_cur[j - 1] - self.gap_start, y_cur[j - 1] - self.gap_continuation
                )
            m_prev, x_prev, y_prev = m_cur, x_cur, y_cur
        return max(m_prev[-1], x_prev[-1], y_prev[-1])
