"""scipy.sparse forms of OperatorMatrix, for tests that compare against scipy."""

import scipy.sparse as sp

from starkchain import OperatorMatrix


def csr(op):
    """The scipy CSR matrix of op's entries, stored zeros included."""
    return sp.csr_matrix((op.vals, (op.rows, op.cols)), shape=(op.dim, op.dim))


def operator(matrix, basis_tag):
    """OperatorMatrix of a square matrix in any form scipy.sparse takes;
    zeros of a dense matrix are not stored."""
    m = sp.coo_matrix(matrix)
    assert m.shape[0] == m.shape[1], m.shape
    return OperatorMatrix(m.shape[0], m.row, m.col, m.data, basis_tag)
