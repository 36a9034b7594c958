"""Fig 4 — the MLP network structure, rendered as text.

The paper's Fig 4 is a diagram of the 784-300-300-10 accuracy network
with the APA operator boxed around the middle layer.  This driver builds
the real model and renders the equivalent description, so "every figure
has a driver" holds literally and the structure is asserted from the
constructed object rather than transcribed.
"""

from __future__ import annotations

from repro.core.engine import default_engine
from repro.nn.layers import Dense
from repro.nn.mlp import build_accuracy_mlp

__all__ = ["run_fig4", "format_fig4"]


def run_fig4(hidden_algorithm: str = "bini322"):
    """Build the Fig-4 network with the given hidden-product algorithm."""
    return build_accuracy_mlp(
        hidden_backend=default_engine().backend(algorithm=hidden_algorithm))


def format_fig4(model=None) -> str:
    model = model or run_fig4()
    lines = ["Fig 4: Multi-Layer Perceptron network structure"]
    for layer in model.layers:
        if isinstance(layer, Dense):
            tag = layer.backend.name
            batchy = f"{layer.in_features} -> {layer.out_features}"
            note = ("   <- APA operator (forward + both backward products)"
                    if tag.startswith("apa") else "")
            lines.append(f"  Dense {batchy:>12s}   [{tag}]{note}")
        else:
            lines.append(f"  {type(layer).__name__}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_fig4())
