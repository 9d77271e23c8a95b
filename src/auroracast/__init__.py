"""Loss-engineered nowcasting of auroral electron energy flux on a
synthetic polar world: data synthesis, feature pipeline, a minimal
reverse-mode autodiff engine, three architectures, five losses, training,
and the evaluation protocol."""

__version__ = "0.1.0"
