"""Braid words on n strands and generator-relation checking.

Words are sequences of nonzero integers: i stands for the Artin generator
sigma_i, -i for its inverse, 1 <= i <= strands-1.  Two input grammars are
accepted: signed integers ("1 -2 3") and symbolic ("s1 s2^-1 s1^3").  The
canonical rendering is the signed-integer form.
"""

from __future__ import annotations

import re
from operator import index

from .laurent import NUMERAL

# Longest word BraidWord.parse expands, checked before the letters are built
# so that a huge exponent fails fast instead of exhausting memory.
MAX_WORD_LETTERS = 10000


class BraidWord:
    __slots__ = ("strands", "letters")

    def __init__(self, strands, letters=()):
        strands = index(strands)
        if strands < 2:
            raise ValueError("a braid group needs at least 2 strands")
        letters = tuple(index(x) for x in letters)
        for pos, x in enumerate(letters):
            if x == 0 or abs(x) > strands - 1:
                raise ValueError("letter %d at position %d is out of range for %d strands"
                                 % (x, pos, strands))
        self.strands = strands
        self.letters = letters

    # ------------------------------------------------------------------

    _SYMBOLIC = re.compile(r"^s(%s)(?:\^(-?%s))?$" % (NUMERAL, NUMERAL))
    _SIGNED = re.compile(r"^-?%s$" % NUMERAL)

    @classmethod
    def parse(cls, text, strands):
        """Parse either input grammar; empty text is the identity word."""
        tokens = text.replace(",", " ").split()
        letters = []
        for pos, tok in enumerate(tokens):
            m = cls._SYMBOLIC.match(tok)
            if m:
                idx = int(m.group(1))
                exp = int(m.group(2)) if m.group(2) is not None else 1
                if idx == 0:
                    raise ValueError("generator index 0 in token %r (token %d)" % (tok, pos))
                letter, count = (idx if exp > 0 else -idx), abs(exp)
            elif cls._SIGNED.match(tok):
                letter, count = int(tok), 1
            else:
                raise ValueError("cannot read braid token %r (token %d)" % (tok, pos))
            if len(letters) + count > MAX_WORD_LETTERS:
                raise ValueError("braid word longer than %d letters at token %r (token %d)"
                                 % (MAX_WORD_LETTERS, tok, pos))
            letters.extend([letter] * count)
        return cls(strands, letters)

    @classmethod
    def identity(cls, strands):
        return cls(strands, ())

    # ------------------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands != other.strands:
            raise ValueError("cannot concatenate words on %d and %d strands"
                             % (self.strands, other.strands))
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self):
        return BraidWord(self.strands, tuple(-x for x in reversed(self.letters)))

    def conjugate(self, g):
        """g * self * g^-1."""
        return g * self * g.inverse()

    def free_reduce(self, cyclic=False):
        """The word with every pair of inverse letters cancelled that meet by
        far commutation, sigma_i sigma_j = sigma_j sigma_i for |i - j| >= 2;
        with cyclic set, also cancelled across the two ends of the word.

        This is reduction in the group with only the far-commutation
        relations (a right-angled Artin group), of which the braid group is a
        quotient, so the result is the same braid, and with cyclic set a
        conjugate of it.  Letters go in pairs, so the length keeps its
        parity.  One pass left to right keeps, for each index i, the last
        kept letter of index i, each kept letter pointing at the one before
        it: a letter x of index i cancels that last one when it is -x and no
        kept letter of index i - 1 or i + 1 stands after it (C. Wrathall,
        J. Symb. Comput. 6, 1988).  No such pair is left.  The cyclic step
        then cancels the first kept letter of index i against the last one
        when they are inverse and no kept letter of index i - 1 or i + 1
        stands before the first or after the last: that strips a
        conjugating letter, and only the indices i - 1, i and i + 1 need
        another look (J. Crisp, E. Godelle and B. Wiest, J. Topology 2,
        2009).  Both steps take time linear in the length of the word plus
        the number of strands, and reducing the result again changes
        nothing; a word with nothing to cancel comes back as itself."""
        letters = self.letters
        n, end = self.strands, len(letters)
        # last[i]: the position of the last kept letter of index i, or -1,
        # which never passes the first test below; below[p]: that of the
        # kept letter of index |letters[p]| before p
        last = [-1] * (n + 1)
        below = [-1] * end
        kept = list(letters)
        for p, x in enumerate(letters):
            i = x if x > 0 else -x
            top = last[i]
            if top > last[i - 1] and top > last[i + 1] and kept[top] == -x:
                last[i] = below[top]
                kept[top] = kept[p] = 0
            else:
                below[p] = top
                last[i] = p
        if cyclic:
            # first[i]: the position of the first kept letter of index i, or
            # end; above[p]: that of the kept letter of the same index after p
            first = [end] * (n + 1)
            above = [end] * end
            for i in range(1, n):
                p = last[i]
                while p >= 0:
                    first[i] = p
                    if below[p] >= 0:
                        above[below[p]] = p
                    p = below[p]
            todo = list(range(1, n))
            while todo:
                i = todo.pop()
                head, tail = first[i], last[i]
                if (head < tail and kept[head] == -kept[tail]
                        and first[i - 1] > head < first[i + 1]
                        and last[i - 1] < tail > last[i + 1]):
                    kept[head] = kept[tail] = 0
                    if above[head] == tail:
                        first[i], last[i] = end, -1
                    else:
                        first[i], last[i] = above[head], below[tail]
                    todo += (i - 1, i, i + 1)
        if 0 not in kept:
            return self
        word = BraidWord.__new__(BraidWord)
        word.strands, word.letters = n, tuple([x for x in kept if x])
        return word

    def exponent_sum(self):
        return sum(1 if x > 0 else -1 for x in self.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        if not isinstance(other, BraidWord):
            return NotImplemented
        return self.strands == other.strands and self.letters == other.letters

    def __hash__(self):
        return hash((self.strands, self.letters))

    def __str__(self):
        return " ".join(str(x) for x in self.letters)

    def __repr__(self):
        return "BraidWord(%d, %r)" % (self.strands, list(self.letters))

    def to_json(self):
        return {"strands": self.strands, "word": list(self.letters)}


class CheckReport:
    """Outcome of a verification: labelled pass/fail cases plus free-form notes."""

    def __init__(self, name):
        self.name = name
        self.entries = []
        self.notes = []

    def add(self, label, ok):
        self.entries.append((label, bool(ok)))
        return self

    def note(self, text):
        self.notes.append(text)
        return self

    @property
    def passed(self):
        """True when there is at least one case and every case passed."""
        return bool(self.entries) and all(ok for _label, ok in self.entries)

    def failures(self):
        return [label for label, ok in self.entries if not ok]

    def __str__(self):
        lines = []
        for label, ok in self.entries:
            lines.append("%s %s" % ("PASS" if ok else "FAIL", label))
        for text in self.notes:
            lines.append("note: %s" % text)
        lines.append("%s: %s" % (self.name, "PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def to_json(self):
        return {
            "check": self.name,
            "passed": self.passed,
            "results": [{"case": label, "passed": ok} for label, ok in self.entries],
            "notes": list(self.notes),
        }


def check_braid_relations(rep):
    """Verify the Artin relations on the generator images of a representation.

    Checks sigma_i sigma_(i+1) sigma_i = sigma_(i+1) sigma_i sigma_(i+1) for
    adjacent pairs and commutation for distant pairs; exact equality.
    """
    gens = rep.gen_images
    m = len(gens)
    report = CheckReport("braid-relations[%s]" % getattr(rep, "label", "?"))
    for i in range(m - 1):
        a, b = gens[i], gens[i + 1]
        ok = a * b * a == b * a * b
        report.add("sigma_%d sigma_%d sigma_%d = sigma_%d sigma_%d sigma_%d"
                   % (i + 1, i + 2, i + 1, i + 2, i + 1, i + 2), ok)
    for i in range(m):
        for j in range(i + 2, m):
            ok = gens[i] * gens[j] == gens[j] * gens[i]
            report.add("sigma_%d sigma_%d = sigma_%d sigma_%d" % (i + 1, j + 1, j + 1, i + 1), ok)
    return report
