"""Set-difference cardinality estimators (§6, Appendices A and B)."""
