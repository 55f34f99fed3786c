"""Exhaustively scan transfer matrices for negative minors.

Runs the full minor enumeration for each dimension up to 15, reporting
the number of minors checked and the smallest value seen (always zero
here: plenty of minors vanish, none go negative). Then scans a matrix
that is not totally nonnegative to show what a witness looks like.
"""

import time

from polytnn import ExactMatrix, is_totally_nonnegative, transfer_matrix


def main():
    grand_total = 0
    start = time.monotonic()
    for d in range(1, 16):
        report = is_totally_nonnegative(transfer_matrix(d))
        grand_total += report.minors_checked
        print(f"dimension {d:2d}: {report.minors_checked:7d} minors, "
              f"min {report.min_minor}, "
              f"{'all nonnegative' if report.is_tnn else 'NEGATIVE FOUND'}")
    elapsed = time.monotonic() - start
    print(f"total: {grand_total} minors in {elapsed:.2f}s, exact arithmetic throughout")
    print()

    bad = ExactMatrix(((1, 2), (3, 4)))
    report = is_totally_nonnegative(bad)
    print(f"counterexample matrix {bad.entries}:")
    print(f"   is_tnn={report.is_tnn}, witness={report.witness}")


if __name__ == "__main__":
    main()
