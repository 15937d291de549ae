"""Hybrid token/segment mixture-of-experts at desk scale.

Token-level MoE with a frozen shared expert and normalized top-K gating,
segment-level expert-choice MoE over sliding-window segments, fused per
layer, upcycled from a dense toy language model and trained with a combined
next-token + load-balance objective that updates only the new machinery.
"""
