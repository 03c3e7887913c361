"""Two-cell and four-cell deck assessments with the LCD rendering."""

from weighsim import (
    DeckGeometry,
    assess_four_cell,
    assess_two_cell,
    policy,
    render_lcd,
)

print("== two-cell deck, 9.5 kg policy ==")
geom2 = DeckGeometry(wheelbase_m=1.0, track_m=1.0, breadth_m=0.6)
p1 = policy("prototype1")
for left, right in [(4.0, 4.0), (5.0, 4.5), (6.2, 4.1)]:
    a = assess_two_cell((left, right), geom2, p1)
    print(f"\nleft {left} kg / right {right} kg:")
    print(render_lcd(a, p1))

print("\n== four-cell deck, 400 kg / 30 % policy ==")
geom4 = DeckGeometry(wheelbase_m=2.0, track_m=1.5)
p2 = policy("prototype2")
cases = {
    "balanced": (80.0, 80.0, 80.0, 80.0),
    "rear-biased overload": (100.0, 100.0, 150.0, 150.0),
    "one corner too heavy": (140.0, 80.0, 90.0, 70.0),
}
for label, masses in cases.items():
    a = assess_four_cell(masses, geom4, p2)
    print(f"\n{label}:")
    print(render_lcd(a, p2))
