"""Generator words and configuration-level operations.

A configuration is an ordered list of norm -1 inversive vectors with
display labels; the rows double as mirrors and as the things being
moved.  The word "b.a" means row a reflected through row b, and longer
words associate to the right (a.b.c = a.(b.c)): the rightmost atom
picks the seed row, every atom left of it reflects, nearest first.

A '~' on an atom reverses orientation.  Reflections are linear, so the
tags commute out and each contributes one global sign to the result.

The tables' def'd-as column additionally uses a parenthesized
shorthand for reflecting through a *derived* wall: in a non-final
position the group (w1...wk) unfolds to the palindrome

    (w1...wk).c  =  w1...w{k-1}.wk.w{k-1}...w1.c

(recursively for nested groups), while a group in the final position
simply names its own value as the seed.  parse_word accepts this
superset of the plain grammar and flattens it.
"""

from __future__ import annotations

from . import coxeter, geometry
from ._record import Record

__all__ = ["Word", "Configuration", "parse_word", "eval_word", "double"]


class Word(Record):
    atoms: tuple  # of (index, reversed) pairs, indices 1-based

    def __str__(self) -> str:
        return ".".join(
            ("~" if rev else "") + str(i) for i, rev in self.atoms
        )

    def __len__(self) -> int:
        return len(self.atoms)


def parse_word(text: str) -> Word:
    """Parse `word := atom ('.' atom)*`, atom `['~'] uint`, plus the
    parenthesized shorthand described in the module docstring."""
    pos = 0
    n = len(text)

    def err(msg):
        raise ValueError(f"word syntax error at position {pos}: {msg}")

    def parse_items(depth):
        nonlocal pos
        items = []
        while True:
            rev = False
            if pos < n and text[pos] == "~":
                rev = True
                pos += 1
            if pos < n and text[pos] == "(":
                if rev:
                    err("reversal tag on a parenthesized group is not supported")
                pos += 1
                inner = parse_items(depth + 1)
                if pos >= n or text[pos] != ")":
                    err("expected ')'")
                pos += 1
                items.append(("group", inner))
            else:
                start = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                if pos == start:
                    err("expected an index")
                idx = int(text[start:pos])
                if idx == 0:
                    pos = start
                    err("index 0 is not a generator")
                items.append(("atom", (idx, rev)))
            if pos < n and text[pos] == ".":
                pos += 1
                continue
            return items

    if not text:
        raise ValueError("word syntax error at position 0: empty word")
    items = parse_items(0)
    if pos != n:
        raise ValueError(f"word syntax error at position {pos}: unexpected "
                         f"character {text[pos]!r}")

    def flatten(items, is_tail):
        atoms = []
        for k, item in enumerate(items):
            last = is_tail and k == len(items) - 1
            if item[0] == "atom":
                atoms.append(item[1])
            elif last:
                # final group: its value is the seed, splice in place
                atoms.extend(flatten(item[1], True))
            else:
                # non-final group: reflect through the derived wall; w is
                # nonempty, since parse_items returns an item or raises
                w = flatten(item[1], True)
                atoms.extend(w)
                atoms.extend(reversed(w[:-1]))
        return atoms

    return Word(atoms=tuple(flatten(items, True)))


def eval_word(word, base) -> tuple:
    """Evaluate a word over a configuration (or plain row sequence).

    Returns the inversive vector; 1-based indices, rightmost atom is
    the seed.
    """
    rows = base.rows if isinstance(base, Configuration) else tuple(base)
    if isinstance(word, str):
        word = parse_word(word)
    for i, _ in word.atoms:
        if not 1 <= i <= len(rows):
            raise IndexError(
                f"word index {i} out of range for {len(rows)} rows"
            )
    idx, _ = word.atoms[-1]
    x = rows[idx - 1]
    for i, _ in reversed(word.atoms[:-1]):
        x = geometry.reflect(x, rows[i - 1])
    if sum(1 for _, rev in word.atoms if rev) % 2:
        x = tuple(-c for c in x)
    return x


class Configuration(Record):
    """Named, ordered collection of norm -1 vectors.

    form_d is the quadratic-form context the data came from (metadata
    only); defining_words are the def'd-as provenance strings over an
    external generator base, also metadata.  The Gram matrix is computed
    once, on construction, and its diagonal holds the row norms; it is
    kept beside the fields, outside equality, hashing and repr.
    """

    name: str
    rows: tuple
    labels: tuple
    form_d: int | None = None
    defining_words: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(geometry.as_vector(r) for r in self.rows))
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.defining_words is not None:
            object.__setattr__(
                self, "defining_words", tuple(self.defining_words)
            )
            if len(self.defining_words) != len(self.rows):
                raise ValueError("defining_words length mismatch")
        if not self.rows:
            raise ValueError("configuration needs at least one row")
        if len(self.labels) != len(self.rows):
            raise ValueError("labels length mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        gram = geometry.gram(self.rows)
        object.__setattr__(self, "_gram", gram)
        for i, label in enumerate(self.labels):
            if gram[i][i] != geometry.MINUS_ONE:
                raise ValueError(f"row {label!r} has norm {gram[i][i]}, not -1")

    @property
    def dim_n(self) -> int:
        return len(self.rows[0]) - 2

    def position(self, label: str) -> int:
        """0-based row position of a label."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no row labeled {label!r}") from None

    def row(self, label: str) -> tuple:
        return self.rows[self.position(label)]

    def split(self, labels):
        """(cluster rows, cocluster rows, cluster positions, cocluster
        positions) for a cluster given by labels; positions are 0-based."""
        positions = [self.position(label) for label in labels]
        taken = set(positions)
        rest = [i for i in range(len(self.rows)) if i not in taken]
        cluster = [self.rows[i] for i in positions]
        cocluster = [self.rows[i] for i in rest]
        return cluster, cocluster, positions, rest

    def gram(self):
        return self._gram


def double(config: Configuration, j: int, enforce_parity: bool = True) -> Configuration:
    """Replace the configuration by everything-but-j plus its mirror
    image through row j (1-based).

    With enforce_parity (default), every other row must meet row j
    through an even number of diagram lines: orthogonal (0), tangent
    or disjoint (thick/dashed), or an angle pi/n with n even.  A pi/n
    edge with n odd makes the doubled set fail to be a mirror
    arrangement, so it is rejected.

    Rows fixed by the reflection (the ones orthogonal to j) come out
    as exact duplicates and are dropped; each surviving image row is
    labeled "j.<old label>".
    """
    m = len(config.rows)
    if not 1 <= j <= m:
        raise ValueError(f"row index {j} out of range (1..{m})")
    mirror = config.rows[j - 1]
    mirror_label = config.labels[j - 1]

    if enforce_parity:
        gram = config.gram()
        for i in range(m):
            if i == j - 1:
                continue
            kind = coxeter.classify_entry(gram[i][j - 1])
            if isinstance(kind, coxeter.Angle) and kind.order % 2:
                raise ValueError(
                    f"cannot double about {mirror_label!r}: row "
                    f"{config.labels[i]!r} meets it at angle pi/{kind.order} "
                    f"({kind.order - 2} lines, odd)"
                )

    rows, labels, words = [], [], []
    seen = set()
    keep = [i for i in range(m) if i != j - 1]
    for i in keep:
        rows.append(config.rows[i])
        labels.append(config.labels[i])
        words.append(config.labels[i])
        seen.add(config.rows[i])
    for i in keep:
        image = geometry.reflect(config.rows[i], mirror)
        if image in seen:
            continue
        seen.add(image)
        rows.append(image)
        labels.append(f"{mirror_label}.{config.labels[i]}")
        words.append(f"{mirror_label}.{config.labels[i]}")
    return Configuration(
        name=f"{config.name} doubled about {mirror_label}",
        rows=tuple(rows),
        labels=tuple(labels),
        form_d=config.form_d,
        defining_words=tuple(words),
    )
