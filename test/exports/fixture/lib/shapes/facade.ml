include Shape
