module chainmod

go 1.22
