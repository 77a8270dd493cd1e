"""dyckflip benchmark package; see README.md."""
